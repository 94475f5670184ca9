//! The termination portfolio: every checker in the library, side by side,
//! on the calibration corpus.
//!
//! Shows what each syntactic condition says, what the exact procedures
//! decide, and which dispatcher method answered — a one-screen tour of the
//! paper's landscape.
//!
//! Run with: `cargo run --example termination_portfolio`

use chasekit::datagen::{corpus, ontology_corpus};
use chasekit::prelude::*;

fn yn(b: bool) -> &'static str {
    if b {
        "yes"
    } else {
        "no "
    }
}

fn verdict(v: Option<bool>) -> &'static str {
    match v {
        Some(true) => "terminates",
        Some(false) => "diverges  ",
        None => "unknown   ",
    }
}

fn main() {
    let header: [&str; 9] =
        ["rule set", "class", "WA ", "RA ", "JA ", "aGRD", "CT-so", "CT-o", "portfolio method"];
    println!(
        "{:<22} {:<13} | {} {} {} {} | {:<11} {:<11} | {:?}",
        header[0],
        header[1],
        header[2],
        header[3],
        header[4],
        header[5],
        header[6],
        header[7],
        header[8]
    );
    println!("{}", "-".repeat(110));

    // The calibration corpus plus the ontology-shaped families behind the
    // landscape shoot-out (`experiments e9`).
    for lp in corpus().into_iter().chain(ontology_corpus()) {
        let p = &lp.program;
        let wa = is_weakly_acyclic(p);
        let ra = is_richly_acyclic(p);
        let ja = is_jointly_acyclic(p);
        let agrd = is_grd_acyclic(p);

        let so = decide(p, ChaseVariant::SemiOblivious, &Budget::default());
        let ob = decide(p, ChaseVariant::Oblivious, &Budget::default());

        println!(
            "{:<24} {:<13} | {} {} {} {}  | {:<11} {:<11} | {:?}",
            lp.name,
            p.class().to_string(),
            yn(wa),
            yn(ra),
            yn(ja),
            yn(agrd),
            verdict(so.terminates),
            verdict(ob.terminates),
            so.method,
        );

        // Every member promises a syntactic class; the calibration members
        // additionally carry analytic ground truth (the ontology families
        // leave truth to the bounded-chase oracle — see
        // tests/checker_oracle.rs) — check whatever is known, live.
        assert!(lp.class_holds(), "{}: class drifted above {:?}", lp.name, lp.expected_class);
        if lp.so_terminates.is_some() {
            assert_eq!(so.terminates, lp.so_terminates, "{} (so)", lp.name);
        }
        if lp.o_terminates.is_some() {
            assert_eq!(ob.terminates, lp.o_terminates, "{} (o)", lp.name);
        }
    }

    println!("\nEvery decision above matches the corpus's analytic ground truth.");

    // And the restricted chase, for the members its procedures can reach.
    println!("\nRestricted chase (future-work procedure):");
    for lp in corpus().into_iter().chain(ontology_corpus()) {
        let v = restricted_verdict(&lp.program);
        if v.terminates.is_some() {
            println!("  {:<24} {} ({:?})", lp.name, verdict(v.terminates), v.method);
        }
    }
}
