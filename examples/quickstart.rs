//! Quickstart: the paper's two worked examples, end to end.
//!
//! Run with: `cargo run --example quickstart`

use chasekit::core::display::{instance_to_string, rule_to_string};
use chasekit::prelude::*;

fn main() {
    // ------------------------------------------------------------------
    // Example 1 of the paper: every person has a father who is a person.
    // ------------------------------------------------------------------
    let program = Program::parse(
        r#"
        % Example 1 (PODS'15): the chase runs forever.
        person(bob).
        person(X) -> hasFather(X, Y), person(Y).
        "#,
    )
    .expect("the example parses");

    println!("Rules:");
    for rule in program.rules() {
        println!("  {}", rule_to_string(rule, &program.vocab));
    }
    println!("Class: {}\n", program.class());

    // Run the chase for a few steps to watch it not terminate.
    let run = chase_facts(&program, ChaseVariant::SemiOblivious, &Budget::applications(6));
    println!("Semi-oblivious chase after {} steps ({:?}):", run.stats.applications, run.outcome);
    print!("{}", instance_to_string(&run.instance, &program.vocab));

    // Decide termination on ALL databases (exact: the rules are simple
    // linear, so this is the paper's Theorem 1 procedure).
    let decision = decide(&program, ChaseVariant::SemiOblivious, &Budget::default());
    println!(
        "\nDecision: the semi-oblivious chase {} on all databases (method: {:?})\n",
        if decision.terminates == Some(true) { "terminates" } else { "DIVERGES" },
        decision.method,
    );
    assert_eq!(decision.terminates, Some(false));

    // ------------------------------------------------------------------
    // Example 2 of the paper: p(a,b) with p(X,Y) -> ∃Z p(Y,Z).
    // ------------------------------------------------------------------
    let program2 = Program::parse("p(a, b). p(X, Y) -> p(Y, Z).").unwrap();
    let run2 = chase_facts(&program2, ChaseVariant::SemiOblivious, &Budget::applications(5));
    println!("Example 2 after {} steps:", run2.stats.applications);
    print!("{}", instance_to_string(&run2.instance, &program2.vocab));

    // Contrast: a variant rule that the semi-oblivious chase DOES
    // terminate on, but the oblivious chase does not — the reason the
    // paper analyses the variants separately.
    let separator = Program::parse("r(a, b). r(X, Y) -> r(X, Z).").unwrap();
    let so = decide(&separator, ChaseVariant::SemiOblivious, &Budget::default());
    let ob = decide(&separator, ChaseVariant::Oblivious, &Budget::default());
    println!(
        "\nSeparator r(X,Y) -> r(X,Z): semi-oblivious {}, oblivious {}",
        if so.terminates == Some(true) { "terminates" } else { "diverges" },
        if ob.terminates == Some(true) { "terminates" } else { "diverges" },
    );
    assert_eq!(so.terminates, Some(true));
    assert_eq!(ob.terminates, Some(false));
}
