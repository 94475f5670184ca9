//! The verdict oracle: every portfolio checker over the full calibration
//! corpus, cross-validated against the bounded chase and locked as a
//! golden verdict table.
//!
//! One line per corpus member records what every checker says (the
//! syntactic conditions, the portfolio decision + method per variant, the
//! restricted-chase procedure) and what the chase engine actually did on
//! the critical instance under all three variants. Any behavioural drift
//! in any checker shows up as a readable per-member diff against
//! `tests/golden/checker_verdicts.txt`; regenerate deliberately with
//! `UPDATE_GOLDEN=1 cargo test --test checker_oracle`.
//!
//! Cross-validation rules (the restricted asymmetry is deliberate):
//!
//! * a `terminates` claim against a chase that exceeded the escalated
//!   budget is a failure under **every** variant — CT-restricted
//!   quantifies over all fair orders, so a diverging order on the
//!   critical instance already refutes it;
//! * a `diverges` claim against a saturating chase is a failure for the
//!   oblivious/semi-oblivious variants (Marnette: critical-instance
//!   saturation decides CT there) but is skipped for the restricted
//!   chase, where one saturating order proves nothing about the others.

use std::path::PathBuf;

use chasekit::acyclicity::{
    is_grd_acyclic, is_jointly_acyclic, is_richly_acyclic, is_weakly_acyclic,
};
use chasekit::datagen::{corpus, ontology_corpus};
use chasekit::prelude::*;
use chasekit::termination::{mfa_status, MfaStatus};
use chasekit_bench::truth::{critical_chase_truth, ChaseTruth};

fn checker_budget() -> Budget {
    Budget { max_applications: 50_000, max_atoms: 500_000, ..Budget::unlimited() }
}

fn truth_budget() -> Budget {
    Budget { max_applications: 100_000, max_atoms: 1_000_000, ..Budget::unlimited() }
}

fn escalated_truth_budget() -> Budget {
    Budget { max_applications: 800_000, max_atoms: 8_000_000, ..Budget::unlimited() }
}

fn yn(b: bool) -> &'static str {
    if b {
        "y"
    } else {
        "n"
    }
}

fn verdict(v: Option<bool>) -> &'static str {
    match v {
        Some(true) => "terminates",
        Some(false) => "diverges",
        None => "unknown",
    }
}

fn truth_str(t: ChaseTruth) -> &'static str {
    match t {
        ChaseTruth::Saturates => "saturates",
        ChaseTruth::Exceeded => "exceeded",
    }
}

/// One member's verdict line + any cross-validation failures.
fn verdict_line(name: &str, p: &Program) -> (String, Vec<String>) {
    let wa = is_weakly_acyclic(p);
    let ra = is_richly_acyclic(p);
    let ja = is_jointly_acyclic(p);
    let agrd = is_grd_acyclic(p);
    let mfa = match mfa_status(p, &checker_budget()) {
        MfaStatus::Mfa => "y",
        MfaStatus::NotMfa => "n",
        MfaStatus::Unknown => "?",
    };
    let so = decide(p, ChaseVariant::SemiOblivious, &checker_budget());
    let ob = decide(p, ChaseVariant::Oblivious, &checker_budget());
    let restricted = restricted_verdict(p);

    // Bounded-chase oracle, with the lazy escalation for terminates-vs-
    // exceeded pairs.
    let mut failures = Vec::new();
    let mut truths = Vec::new();
    let claims = [so.terminates, ob.terminates, restricted.terminates];
    for (vi, variant) in
        [ChaseVariant::SemiOblivious, ChaseVariant::Oblivious, ChaseVariant::Restricted]
            .into_iter()
            .enumerate()
    {
        let mut truth = critical_chase_truth(p, variant, &truth_budget());
        if claims[vi] == Some(true) && truth == ChaseTruth::Exceeded {
            truth = critical_chase_truth(p, variant, &escalated_truth_budget());
        }
        if claims[vi] == Some(true) && truth == ChaseTruth::Exceeded {
            failures.push(format!(
                "{name}: claims terminates under {variant:?} but the critical chase \
                 exceeded the escalated budget"
            ));
        }
        if claims[vi] == Some(false)
            && truth == ChaseTruth::Saturates
            && variant != ChaseVariant::Restricted
        {
            failures.push(format!(
                "{name}: claims diverges under {variant:?} but the critical chase saturated"
            ));
        }
        truths.push(truth);
    }

    let line = format!(
        "{name:<24} class={:<12} wa={} ra={} ja={} agrd={} mfa={} | \
         so={}/{:?} o={}/{:?} restricted={}/{:?} | \
         chase so={} o={} restricted={}",
        p.class().to_string(),
        yn(wa),
        yn(ra),
        yn(ja),
        yn(agrd),
        mfa,
        verdict(so.terminates),
        so.method,
        verdict(ob.terminates),
        ob.method,
        verdict(restricted.terminates),
        restricted.method,
        truth_str(truths[0]),
        truth_str(truths[1]),
        truth_str(truths[2]),
    );
    (line, failures)
}

fn full_table() -> (String, Vec<String>) {
    let mut lines = Vec::new();
    let mut failures = Vec::new();
    for lp in corpus().into_iter().chain(ontology_corpus()) {
        let (line, bad) = verdict_line(&lp.name, &lp.program);
        // The corpus's analytic labels participate in the oracle too.
        for (label, got, tag) in [
            (
                lp.so_terminates,
                decide(&lp.program, ChaseVariant::SemiOblivious, &checker_budget()).terminates,
                "so",
            ),
            (
                lp.o_terminates,
                decide(&lp.program, ChaseVariant::Oblivious, &checker_budget()).terminates,
                "o",
            ),
        ] {
            if let Some(want) = label {
                if got != Some(want) {
                    failures.push(format!(
                        "{}: portfolio ({tag}) disagrees with the analytic label {want}",
                        lp.name
                    ));
                }
            }
        }
        lines.push(line);
        failures.extend(bad);
    }
    (lines.join("\n") + "\n", failures)
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/checker_verdicts.txt")
}

#[test]
fn verdict_table_matches_golden_and_the_chase() {
    let (got, failures) = full_table();
    assert!(failures.is_empty(), "oracle cross-validation failed:\n{failures:#?}");

    let path = golden_path();
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(&path, &got).unwrap();
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {path:?} ({e}); regenerate with \
             UPDATE_GOLDEN=1 cargo test --test checker_oracle"
        )
    });

    // Per-member diff first: a drifting checker names the member it
    // drifted on instead of a wall-of-text mismatch.
    for (g, w) in got.lines().zip(want.lines()) {
        assert_eq!(g, w, "verdict drift (regenerate with UPDATE_GOLDEN=1 if intentional)");
    }
    assert_eq!(got, want, "verdict table changed shape (member added/removed?)");
}
