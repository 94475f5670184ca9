//! The checker soundness lattice: every implication between the
//! termination conditions that the theory promises, asserted over the
//! ontology-shaped generator families and a proptest population of mixed
//! random programs.
//!
//! The lattice (E6 measures the strictness; this suite enforces the
//! containments as hard invariants):
//!
//! * `RA ⊆ WA ⊆ JA ⊆ MFA` — each sufficient condition is subsumed by the
//!   next (a JA-accepted set can at worst leave MFA `Unknown` under fuel,
//!   never `NotMfa`);
//! * on linear inputs the *critical* variants are complete: `WA ⇒`
//!   critical-WA and `RA ⇒` critical-RA (the exact shape-graph procedure
//!   accepts whatever the syntactic condition accepts);
//! * `aGRD ⇒` termination under **every** chase variant — no exact or
//!   semi-decision procedure may claim divergence on an aGRD set;
//! * on guarded inputs the portfolio dispatcher and the guarded pumping
//!   procedure are the same procedure — their verdicts must agree whenever
//!   both commit;
//! * and nothing any checker claims may contradict what the chase engine
//!   actually does on the critical instance (bounded, with a generous
//!   budget — see `chasekit_bench::truth`).

use proptest::prelude::*;

use chasekit::acyclicity::{
    is_grd_acyclic, is_jointly_acyclic, is_richly_acyclic, is_weakly_acyclic,
};
use chasekit::datagen::{
    critical_constants, dl_lite_r, lubm, ontology_corpus, random_mixed, RandomConfig,
};
use chasekit::prelude::*;
use chasekit::termination::{
    is_critically_richly_acyclic, is_critically_weakly_acyclic, mfa_status, MfaStatus,
};
use chasekit_bench::truth::{critical_chase_truth, ChaseTruth};

/// Checker fuel. Deliberately far below [`Budget::default`]: diverging
/// general programs grow the critical-instance chase until the atom cap,
/// and the suite runs hundreds of them across parallel test threads.
fn checker_budget() -> Budget {
    Budget { max_applications: 4_000, max_atoms: 40_000, ..Budget::unlimited() }
}

/// First-pass ground-truth budget. Small on purpose: on diverging general
/// programs the chase's join cost explodes with instance size, so the
/// cheap pass handles the (common) divergent case and only a `terminates`
/// claim meeting `Exceeded` pays for the escalated re-run — the same lazy
/// protocol as the landscape harness.
fn truth_budget() -> Budget {
    Budget { max_applications: 1_000, max_atoms: 10_000, ..Budget::unlimited() }
}

/// Escalated ground-truth budget: above the checker fuel and far above the
/// saturation sizes these small generated programs reach, so `Exceeded`
/// against a `terminates` claim is a genuine contradiction.
fn escalated_truth_budget() -> Budget {
    Budget { max_applications: 20_000, max_atoms: 200_000, ..Budget::unlimited() }
}

/// Checks every lattice edge on one program; returns the violations.
fn lattice_violations(name: &str, p: &Program) -> Vec<String> {
    let mut bad = Vec::new();
    let mut check = |ok: bool, law: &str| {
        if !ok {
            bad.push(format!("{name}: {law}"));
        }
    };

    let wa = is_weakly_acyclic(p);
    let ra = is_richly_acyclic(p);
    let ja = is_jointly_acyclic(p);
    let agrd = is_grd_acyclic(p);
    let budget = checker_budget();

    // The syntactic chain RA ⊆ WA ⊆ JA ⊆ MFA.
    check(!ra || wa, "RA accepted but WA rejected");
    check(!wa || ja, "WA accepted but JA rejected");
    let mfa = mfa_status(p, &budget);
    check(!ja || mfa != MfaStatus::NotMfa, "JA accepted but MFA found a cyclic term");

    // On linear inputs the critical variants subsume the syntactic ones.
    if p.class() <= RuleClass::Linear {
        let crit_wa = is_critically_weakly_acyclic(p).expect("class checked");
        let crit_ra = is_critically_richly_acyclic(p).expect("class checked");
        check(!wa || crit_wa, "WA accepted a linear set critical-WA rejects");
        check(!ra || crit_ra, "RA accepted a linear set critical-RA rejects");
    }

    // aGRD ⇒ termination under every variant: nothing may claim divergence.
    let so = decide(p, ChaseVariant::SemiOblivious, &budget);
    let ob = decide(p, ChaseVariant::Oblivious, &budget);
    if agrd {
        check(so.terminates != Some(false), "aGRD set claimed diverging (so)");
        check(ob.terminates != Some(false), "aGRD set claimed diverging (o)");
        check(
            restricted_verdict(p).terminates != Some(false),
            "aGRD set claimed diverging (restricted)",
        );
    }

    // Guarded inputs: the dispatcher IS the pumping procedure.
    if p.class() <= RuleClass::Guarded {
        for (variant, d) in [(ChaseVariant::SemiOblivious, so), (ChaseVariant::Oblivious, ob)] {
            let mut cfg = GuardedConfig::new(variant);
            cfg.max_applications = budget.max_applications;
            cfg.max_atoms = budget.max_atoms;
            let g = decide_guarded(p, cfg).expect("class checked");
            if let (Some(a), Some(b)) = (d.terminates, g.verdict.terminates()) {
                check(a == b, "portfolio and guarded pumping disagree");
            }
        }
    }

    // Nothing contradicts the engine. A `terminates` claim against a
    // chase that exhausts the generous budget — or a `diverges` claim
    // against a saturating one — is a soundness bug somewhere.
    for (variant, d) in [(ChaseVariant::SemiOblivious, so), (ChaseVariant::Oblivious, ob)] {
        let Some(claim) = d.terminates else { continue };
        let mut truth = critical_chase_truth(p, variant, &truth_budget());
        if claim && truth == ChaseTruth::Exceeded {
            truth = critical_chase_truth(p, variant, &escalated_truth_budget());
        }
        check(
            !(claim && truth == ChaseTruth::Exceeded),
            "claimed terminates but the critical chase exceeded the escalated budget",
        );
        check(
            claim || truth != ChaseTruth::Saturates,
            "claimed diverges but the critical chase saturated",
        );
    }

    bad
}

#[test]
fn lattice_holds_on_the_ontology_families() {
    let mut violations = Vec::new();
    for size in [2usize, 4, 7] {
        for seed in 0..25u64 {
            for lp in [dl_lite_r(size, seed), lubm(size, seed), critical_constants(size, seed)] {
                violations.extend(lattice_violations(&lp.name, &lp.program));
            }
        }
    }
    assert!(violations.is_empty(), "{violations:#?}");
}

#[test]
fn lattice_holds_on_the_ontology_corpus() {
    let mut violations = Vec::new();
    for lp in ontology_corpus() {
        violations.extend(lattice_violations(&lp.name, &lp.program));
    }
    assert!(violations.is_empty(), "{violations:#?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// 200 mixed random programs (simple-linear / linear-with-constants /
    /// guarded / general, rotating by seed) through every lattice edge.
    #[test]
    fn lattice_holds_on_mixed_random_programs(seed in 0u64..1_000_000) {
        let p = random_mixed(&RandomConfig::default(), seed);
        let violations = lattice_violations(&format!("random_mixed#{seed}"), &p);
        prop_assert!(violations.is_empty(), "{violations:#?}");
    }
}
