//! Semantic invariants of the chase: results are models of the rules,
//! contain the input, and are universal (homomorphically minimal among
//! models) — checked across variants on terminating workloads.

use chasekit::core::{hom_equivalent, instance_hom_exists};
use chasekit::datagen::{random_database, random_linear, DbConfig, RandomConfig};
use chasekit::engine::contains_instance;
use chasekit::prelude::*;

fn terminating_samples() -> Vec<Program> {
    let cfg = RandomConfig { constants: 1, complexity: 0.4, ..RandomConfig::default() };
    let mut out = Vec::new();
    let mut seed = 0u64;
    while out.len() < 25 && seed < 2_000 {
        let p = random_linear(&cfg, 222_000 + seed);
        if decide_linear(&p, ChaseVariant::SemiOblivious, false).unwrap().terminates {
            out.push(p);
        }
        seed += 1;
    }
    assert!(out.len() >= 25, "not enough terminating samples");
    out
}

#[test]
fn chase_results_are_models_containing_the_input() {
    for (i, mut p) in terminating_samples().into_iter().enumerate() {
        let db = random_database(&mut p, &DbConfig { facts: 10, constants: 4 }, i as u64);
        for variant in [
            ChaseVariant::SemiOblivious,
            ChaseVariant::Restricted,
        ] {
            let run = chase(&p, variant, db.clone(), &Budget::default());
            assert_eq!(run.outcome, StopReason::Saturated, "sample {i} {variant}");
            assert!(is_model(&p, &run.instance), "sample {i} {variant}: not a model");
            assert!(
                contains_instance(&run.instance, &db),
                "sample {i} {variant}: lost input atoms"
            );
        }
    }
}

#[test]
fn variant_results_are_homomorphically_equivalent() {
    // All chase variants compute universal models of the same theory, so
    // the results embed into each other.
    for (i, mut p) in terminating_samples().into_iter().enumerate().take(15) {
        let db = random_database(&mut p, &DbConfig { facts: 8, constants: 3 }, 900 + i as u64);
        let so = chase(&p, ChaseVariant::SemiOblivious, db.clone(), &Budget::default());
        let rst = chase(&p, ChaseVariant::Restricted, db, &Budget::default());
        if so.outcome != StopReason::Saturated || rst.outcome != StopReason::Saturated {
            continue; // termination is per-database here; skip blowups
        }
        assert!(
            hom_equivalent(&so.instance, &rst.instance),
            "sample {i}: variants disagree up to homomorphism"
        );
    }
}

/// On structured datagen families the semi-oblivious chase saturates on,
/// the restricted chase saturates too and its result is hom-equivalent to
/// the semi-oblivious one: both are universal models.
#[test]
fn restricted_results_on_datagen_families_are_universal_model_equivalent() {
    let budget = Budget::applications(100_000).with_atoms(100_000);
    for family in [
        chasekit::datagen::chain(4),
        chasekit::datagen::dl_lite(3, false),
        chasekit::datagen::data_exchange(3),
        chasekit::datagen::wide_terminating(3),
    ] {
        assert_eq!(family.so_terminates, Some(true), "{}", family.name);
        let mut program = family.program.clone();
        // Chase the facts, or the critical instance when there are none.
        let initial = if program.facts().is_empty() {
            CriticalInstance::build(&mut program).instance
        } else {
            Instance::from_atoms(program.facts().iter().cloned())
        };
        let so = chase(&program, ChaseVariant::SemiOblivious, initial.clone(), &budget);
        assert!(so.outcome.is_saturated(), "{}: so must saturate", family.name);
        let rst = chase(&program, ChaseVariant::Restricted, initial, &budget);
        assert!(rst.outcome.is_saturated(), "{}: restricted must saturate", family.name);
        assert!(
            hom_equivalent(&rst.instance, &so.instance),
            "{}: restricted result is not a universal model",
            family.name
        );
    }
}

#[test]
fn restricted_result_is_no_larger_than_semi_oblivious() {
    for (i, mut p) in terminating_samples().into_iter().enumerate().take(15) {
        let db = random_database(&mut p, &DbConfig { facts: 8, constants: 3 }, 1_800 + i as u64);
        let so = chase(&p, ChaseVariant::SemiOblivious, db.clone(), &Budget::default());
        let rst = chase(&p, ChaseVariant::Restricted, db, &Budget::default());
        if so.outcome != StopReason::Saturated || rst.outcome != StopReason::Saturated {
            continue;
        }
        assert!(
            rst.instance.len() <= so.instance.len(),
            "sample {i}: restricted produced more atoms than semi-oblivious"
        );
    }
}

#[test]
fn oblivious_result_embeds_the_semi_oblivious_result() {
    // The o-chase applies a superset of so-triggers: its result contains a
    // homomorphic image of the so-result (both universal over the same
    // theory when both terminate).
    let p = Program::parse(
        "emp(a). emp(X) -> dept(X, D), mgr(D, M). mgr(D, M) -> boss(M).",
    )
    .unwrap();
    let db = Instance::from_atoms(p.facts().iter().cloned());
    let o = chase(&p, ChaseVariant::Oblivious, db.clone(), &Budget::default());
    let so = chase(&p, ChaseVariant::SemiOblivious, db, &Budget::default());
    assert_eq!(o.outcome, StopReason::Saturated);
    assert_eq!(so.outcome, StopReason::Saturated);
    assert!(instance_hom_exists(&so.instance, &o.instance));
    assert!(instance_hom_exists(&o.instance, &so.instance));
}

#[test]
fn universal_model_embeds_into_handcrafted_models() {
    // Chase result embeds into any model we construct by hand.
    let p = Program::parse("emp(a). emp(X) -> dept(X, D).").unwrap();
    let run = chase_facts(&p, ChaseVariant::Restricted, &Budget::default());
    assert_eq!(run.outcome, StopReason::Saturated);

    // Handcrafted model: emp(a), dept(a, hq).
    let mut handmade = p.clone();
    let emp = handmade.vocab.pred("emp").unwrap();
    let dept = handmade.vocab.pred("dept").unwrap();
    let a = handmade.vocab.constant("a").unwrap();
    let hq = handmade.vocab.intern_const("hq");
    let model = Instance::from_atoms([
        Atom::new(emp, vec![Term::Const(a)]),
        Atom::new(dept, vec![Term::Const(a), Term::Const(hq)]),
    ]);
    assert!(is_model(&handmade, &model));
    assert!(
        instance_hom_exists(&run.instance, &model),
        "universal model must embed into every model"
    );
    // And not necessarily vice versa (hq is a named constant).
    assert!(!instance_hom_exists(&model, &run.instance));
}
