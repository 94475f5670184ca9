//! E4 — Theorem 4: deciding chase termination for guarded TGDs.
//!
//! Validates the pumping procedure on a random guarded population against
//! chase ground truth (zero contradictions required; `Unknown`s counted),
//! and measures the cost growth as the guard arity increases — the
//! bounded-arity EXPTIME vs unbounded 2EXPTIME separation shows up as the
//! cloud/type space expanding with arity.

use chasekit_datagen::{random_guarded, RandomConfig};
use chasekit_engine::{Budget, ChaseVariant};
use chasekit_termination::{decide_guarded, GuardedConfig, GuardedError, GuardedVerdict};

use crate::exp::{median_us, timed};
use crate::table::Table;
use crate::truth::{contradiction, critical_chase_truth};

/// E4 parameters.
#[derive(Debug, Clone)]
pub struct Params {
    /// Number of sampled guarded rule sets per variant.
    pub samples: u64,
    /// Generator dials.
    pub cfg: RandomConfig,
    /// Decision fuel.
    pub fuel: Budget,
    /// Ground-truth chase budget (should exceed the decision fuel).
    pub truth_budget: Budget,
    /// Arity sweep for the scaling series.
    pub arities: Vec<usize>,
}

impl Default for Params {
    fn default() -> Self {
        Params {
            samples: 1_000,
            cfg: RandomConfig { predicates: 4, max_arity: 3, rules: 4, ..Default::default() },
            fuel: Budget { max_applications: 4_000, max_atoms: 40_000, ..Budget::unlimited() },
            truth_budget: Budget {
                max_applications: 8_000,
                max_atoms: 80_000,
                ..Budget::unlimited()
            },
            arities: vec![1, 2, 3, 4],
        }
    }
}

/// E4 outcome counters.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Decider-vs-chase contradictions (must be zero).
    pub contradictions: u64,
    /// Samples the decider could not decide within fuel.
    pub unknown: u64,
}

/// Runs E4. Fails — instead of panicking — if the generator ever emits a
/// rule set the guarded decider rejects (a generator bug, not a crash).
pub fn run(params: &Params) -> Result<(Vec<Table>, Outcome), GuardedError> {
    let mut outcome = Outcome::default();

    let mut pop = Table::new(
        "E4a / Theorem 4: guarded population vs chase ground truth",
        &[
            "variant",
            "samples",
            "terminates",
            "diverges",
            "unknown",
            "contradictions",
            "median time (us)",
        ],
    );
    for variant in [ChaseVariant::SemiOblivious, ChaseVariant::Oblivious] {
        let records = crate::parallel::par_map_seeds(params.samples, |seed| {
            let program = random_guarded(&params.cfg, seed);
            let mut cfg = GuardedConfig::new(variant);
            cfg.max_applications = params.fuel.max_applications;
            cfg.max_atoms = params.fuel.max_atoms;
            let (report, us) = timed(|| decide_guarded(&program, cfg));
            let truth = critical_chase_truth(&program, variant, &params.truth_budget);
            report.map(|r| (r.verdict, truth, us))
        });

        let mut terminates = 0u64;
        let mut diverges = 0u64;
        let mut unknown = 0u64;
        let mut contradictions = 0u64;
        let mut times = Vec::new();
        for record in records {
            let (verdict, truth, us) = record?;
            times.push(us);
            let claim = verdict.terminates();
            match verdict {
                GuardedVerdict::Terminates => terminates += 1,
                GuardedVerdict::Diverges(_) => diverges += 1,
                GuardedVerdict::Unknown => unknown += 1,
            }
            if contradiction(claim, truth).is_some() {
                contradictions += 1;
            }
        }
        outcome.contradictions += contradictions;
        outcome.unknown += unknown;
        pop.row(&[
            variant.to_string(),
            params.samples.to_string(),
            terminates.to_string(),
            diverges.to_string(),
            unknown.to_string(),
            contradictions.to_string(),
            median_us(times).to_string(),
        ]);
    }

    // Arity scaling series.
    let mut scale = Table::new(
        "E4b / Theorem 4: decision cost vs guard arity (bounded-arity EXPTIME regime)",
        &["max arity", "median time (us)", "unknown fraction"],
    );
    for &arity in &params.arities {
        let cfg = RandomConfig { max_arity: arity, ..params.cfg };
        let mut times = Vec::new();
        let mut unknown = 0u64;
        let reps = (params.samples / 10).max(10);
        for seed in 0..reps {
            let program = random_guarded(&cfg, 50_000 + seed);
            let mut gcfg = GuardedConfig::new(ChaseVariant::SemiOblivious);
            gcfg.max_applications = params.fuel.max_applications;
            gcfg.max_atoms = params.fuel.max_atoms;
            let (report, us) = timed(|| decide_guarded(&program, gcfg));
            let report = report?;
            times.push(us);
            if matches!(report.verdict, GuardedVerdict::Unknown) {
                unknown += 1;
            }
        }
        scale.row(&[
            arity.to_string(),
            median_us(times).to_string(),
            format!("{:.3}", unknown as f64 / reps as f64),
        ]);
    }

    Ok((vec![pop, scale], outcome))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guarded_decider_never_contradicts_the_chase() {
        let params = Params { samples: 120, arities: vec![2, 3], ..Default::default() };
        let (_, outcome) = run(&params).expect("generator emits guarded sets");
        assert_eq!(outcome.contradictions, 0);
        // Unknowns should be rare on this small population.
        assert!(outcome.unknown <= params.samples / 10, "too many unknowns: {}", outcome.unknown);
    }
}
