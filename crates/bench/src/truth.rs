//! Ground truth for validation: what the chase engine actually does on the
//! critical instance, independently of any syntactic analysis.

use chasekit_core::{CriticalInstance, Program};
use chasekit_engine::{chase, Budget, ChaseVariant};

/// What a budgeted critical-instance chase run observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaseTruth {
    /// The chase saturated: termination proven (Marnette's lemma lifts the
    /// critical instance to all databases).
    Saturates,
    /// The budget ran out: evidence of divergence, not proof. Validation
    /// uses budgets far above the saturation sizes seen in the population,
    /// so a checker claiming `Terminates` against `Exceeded` is a red flag.
    Exceeded,
}

/// Runs the chase of `program` on its critical instance under `budget`.
pub fn critical_chase_truth(
    program: &Program,
    variant: ChaseVariant,
    budget: &Budget,
) -> ChaseTruth {
    let mut program = program.clone();
    let crit = CriticalInstance::build(&mut program);
    if chase(&program, variant, crit.instance, budget).outcome.is_saturated() {
        ChaseTruth::Saturates
    } else {
        ChaseTruth::Exceeded
    }
}

/// Compares a checker's claim against the observed truth.
/// Returns `Some(description)` when they contradict.
pub fn contradiction(claim: Option<bool>, truth: ChaseTruth) -> Option<&'static str> {
    match (claim, truth) {
        (Some(true), ChaseTruth::Exceeded) => {
            Some("checker says terminates, chase exceeded budget")
        }
        (Some(false), ChaseTruth::Saturates) => Some("checker says diverges, chase saturated"),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truth_matches_known_cases() {
        let diverging = Program::parse("p(X, Y) -> p(Y, Z).").unwrap();
        assert_eq!(
            critical_chase_truth(
                &diverging,
                ChaseVariant::SemiOblivious,
                &Budget::applications(500)
            ),
            ChaseTruth::Exceeded
        );
        let terminating = Program::parse("p(X, Y) -> q(X, Y).").unwrap();
        assert_eq!(
            critical_chase_truth(&terminating, ChaseVariant::SemiOblivious, &Budget::default()),
            ChaseTruth::Saturates
        );
    }

    #[test]
    fn contradictions_are_reported() {
        assert!(contradiction(Some(true), ChaseTruth::Exceeded).is_some());
        assert!(contradiction(Some(false), ChaseTruth::Saturates).is_some());
        assert!(contradiction(Some(true), ChaseTruth::Saturates).is_none());
        assert!(contradiction(Some(false), ChaseTruth::Exceeded).is_none());
        assert!(contradiction(None, ChaseTruth::Saturates).is_none());
    }
}
