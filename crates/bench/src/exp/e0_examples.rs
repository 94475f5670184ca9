//! E0 — the paper's worked examples (Section 1, Examples 1 and 2).
//!
//! Reproduces the narrative claims: both examples make every chase variant
//! run forever, and the growth is one new atom per step (an infinite
//! father-chain / path). The table shows the budgeted runs.

use chasekit_core::{Instance, Program};
use chasekit_engine::{chase, Budget, ChaseVariant};

use crate::table::Table;

/// Runs E0 with the given step budget per run.
pub fn run(steps: u64) -> Table {
    let mut table = Table::new(
        "E0: paper Examples 1-2 under all chase variants (budgeted runs)",
        &["example", "variant", "outcome", "applications", "atoms", "nulls"],
    );
    let examples = [
        ("Example 1 (person/hasFather)", "person(bob). person(X) -> hasFather(X, Y), person(Y)."),
        ("Example 2 (p-path)", "p(a, b). p(X, Y) -> p(Y, Z)."),
    ];
    for (name, src) in examples {
        let program = Program::parse(src).expect("example parses");
        for variant in
            [ChaseVariant::Oblivious, ChaseVariant::SemiOblivious, ChaseVariant::Restricted]
        {
            let initial = Instance::from_atoms(program.facts().iter().cloned());
            let run = chase(&program, variant, initial, &Budget::applications(steps));
            let outcome = if run.outcome.is_saturated() {
                "saturated"
            } else {
                "budget-exhausted (diverging)"
            };
            table.row(&[
                name.to_string(),
                variant.to_string(),
                outcome.to_string(),
                run.stats.applications.to_string(),
                run.instance.len().to_string(),
                run.stats.nulls_minted.to_string(),
            ]);
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_examples_diverge_under_all_variants() {
        let t = run(100);
        assert_eq!(t.len(), 6);
        let rendered = t.render();
        assert!(!rendered.contains(" saturated"));
        assert!(rendered.matches("budget-exhausted").count() == 6);
    }
}
