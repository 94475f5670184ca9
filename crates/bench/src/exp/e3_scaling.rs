//! E3 — Theorem 3: complexity of the linear decision procedures.
//!
//! The theorem places the problem in NL for simple linear rules (and for
//! linear rules of bounded arity) and PSPACE-completeness for unbounded
//! arity. The implementation explores the reachable shape graph explicitly,
//! so the *measured shape* is:
//!
//! * polynomial growth in the number of rules/predicates at fixed arity
//!   (the shape space is polynomial when arity is bounded);
//! * exponential growth in the arity (the shape space is the full pattern
//!   space of a width-`k` register).
//!
//! Both series report median wall time and explored-shape counts.

use chasekit_datagen::{random_simple_linear, wide, wide_terminating, RandomConfig};
use chasekit_engine::ChaseVariant;
use chasekit_termination::LinearAnalysis;

use crate::exp::{median_us, timed};
use crate::table::Table;

/// E3 parameters.
#[derive(Debug, Clone)]
pub struct Params {
    /// Rule counts for the fixed-arity series.
    pub rule_counts: Vec<usize>,
    /// Arities for the wide-register series.
    pub arities: Vec<usize>,
    /// Seeds per point (median reported).
    pub repeats: u64,
}

impl Default for Params {
    fn default() -> Self {
        Params {
            rule_counts: vec![2, 4, 8, 16, 32, 64, 128, 256],
            arities: vec![1, 2, 3, 4, 5, 6, 7, 8],
            repeats: 5,
        }
    }
}

fn analyze(program: &chasekit_core::Program) -> (bool, usize, u128) {
    let ((terminates, shapes), us) = timed(|| {
        let analysis = LinearAnalysis::explore(program, false).expect("linear input");
        let d = analysis.decide(ChaseVariant::SemiOblivious).expect("supported variant");
        (d.terminates, d.shapes)
    });
    (terminates, shapes, us)
}

/// Runs E3.
pub fn run(params: &Params) -> Vec<Table> {
    // Series A: #rules at fixed arity 2.
    let mut a = Table::new(
        "E3a / Theorem 3: decision cost vs #rules (simple linear, arity <= 2: the NL regime)",
        &["rules", "median time (us)", "median shapes", "terminating fraction"],
    );
    for &n in &params.rule_counts {
        let cfg = RandomConfig {
            predicates: n.max(2),
            max_arity: 2,
            rules: n,
            ..RandomConfig::default()
        };
        let mut times = Vec::new();
        let mut shapes = Vec::new();
        let mut terminating = 0u64;
        for seed in 0..params.repeats {
            let program = random_simple_linear(&cfg, 1_000 + seed);
            let (t, s, us) = analyze(&program);
            times.push(us);
            shapes.push(s as u128);
            terminating += t as u64;
        }
        a.row(&[
            n.to_string(),
            median_us(times).to_string(),
            median_us(shapes).to_string(),
            format!("{:.2}", terminating as f64 / params.repeats as f64),
        ]);
    }

    // Series B: arity sweep on the wide-register families.
    let mut b = Table::new(
        "E3b / Theorem 3: decision cost vs arity (wide registers: the PSPACE regime)",
        &["arity", "family", "verdict", "time (us)", "shapes"],
    );
    for &k in &params.arities {
        for lp in [wide(k), wide_terminating(k)] {
            let (t, s, us) = analyze(&lp.program);
            b.row(&[
                k.to_string(),
                lp.name.clone(),
                if t { "terminates" } else { "diverges" }.to_string(),
                us.to_string(),
                s.to_string(),
            ]);
        }
    }

    vec![a, b]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_counts_grow_exponentially_in_arity_but_linearly_in_rules() {
        let params = Params { rule_counts: vec![2, 8], arities: vec![2, 4, 6], repeats: 3 };
        let tables = run(&params);
        assert_eq!(tables.len(), 2);
        // The wide-terminating family at arity k has >= 2^k initial shapes.
        let rendered = tables[1].render();
        assert!(rendered.contains("wide-terminating-6"));
    }

    #[test]
    fn wide_terminating_shape_growth_is_exponential() {
        use chasekit_termination::LinearAnalysis;
        let s4 =
            LinearAnalysis::explore(&wide_terminating(4).program, false).unwrap().shape_count();
        let s8 =
            LinearAnalysis::explore(&wide_terminating(8).program, false).unwrap().shape_count();
        assert!(
            s8 >= 8 * s4,
            "expected exponential growth, got {s4} at arity 4 vs {s8} at arity 8"
        );
    }
}
