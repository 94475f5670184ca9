//! Ontology reasoning: DL-Lite-style inclusion dependencies.
//!
//! Simple linear TGDs capture inclusion dependencies and the core of
//! DL-Lite (the paper, §3.1). This example models a small university
//! ontology, checks whether materializing it with the chase is safe
//! (terminates for every ABox), and materializes a universal model used to
//! answer queries.
//!
//! Run with: `cargo run --example ontology_reasoning`

use chasekit::core::display::instance_to_string;
use chasekit::prelude::*;

fn main() {
    // A terminating ontology: the existential chain bottoms out.
    let safe = Program::parse(
        r#"
        % TBox (inclusion dependencies)
        professor(X)    -> teaches(X, C).        % every professor teaches something
        teaches(X, C)   -> course(C).            % what is taught is a course
        course(C)       -> inDept(C, D).         % every course belongs to a department
        inDept(C, D)    -> department(D).
        % ABox
        professor(turing).
        teaches(turing, computability).
        "#,
    )
    .unwrap();

    println!("TBox class: {}", safe.class());
    let decision = decide(&safe, ChaseVariant::SemiOblivious, &Budget::default());
    println!(
        "Materialization safe for every ABox? {}",
        if decision.terminates == Some(true) { "yes" } else { "NO" }
    );
    assert_eq!(decision.terminates, Some(true));

    let run = chase_facts(&safe, ChaseVariant::SemiOblivious, &Budget::default());
    assert_eq!(run.outcome, StopReason::Saturated);
    assert!(is_model(&safe, &run.instance));
    println!("\nUniversal model ({} atoms):", run.instance.len());
    print!("{}", instance_to_string(&run.instance, &safe.vocab));

    // Query: is there a department (possibly anonymous) for Turing's course?
    let dept = safe.vocab.pred("department").expect("declared");
    let has_dept = !run.instance.with_pred(dept).is_empty();
    println!("\nCertain answer to 'exists a department'? {has_dept}");
    assert!(has_dept);

    // An unsafe ontology: closing the chain back to professor makes the
    // chase invent professors forever.
    let unsafe_onto = Program::parse(
        r#"
        professor(X)  -> teaches(X, C).
        teaches(X, C) -> course(C).
        course(C)     -> taughtBy(C, P).
        taughtBy(C, P) -> professor(P).
        professor(turing).
        "#,
    )
    .unwrap();
    let decision = decide(&unsafe_onto, ChaseVariant::SemiOblivious, &Budget::default());
    println!(
        "\nWith the cycle course -> taughtBy -> professor: terminates? {:?}",
        decision.terminates
    );
    assert_eq!(decision.terminates, Some(false));

    // The sufficient conditions agree here, but the exact procedure is
    // what certifies the *safe* ontology too (weak acyclicity happens to
    // suffice for it — check):
    println!("weak acyclicity on the safe ontology: {}", is_weakly_acyclic(&safe));
}
