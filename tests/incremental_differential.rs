//! Differential testing of the incremental-update subsystem (DRed
//! retraction over the derivation DAG) against the from-scratch oracle.
//!
//! The differential: a derivation-tracked machine that chased the
//! original base and then applied an edit script via `apply_edits` must
//! end Skolem-canonically equal (oblivious / semi-oblivious) or
//! hom-equivalent (restricted — its result is legitimately
//! order-dependent) to a from-scratch chase of `edited_program`. Every
//! repaired machine must also satisfy the support invariant: no surviving
//! derived atom without a live, acyclic derivation from surviving base
//! facts.
//!
//! Edit scripts are generated deterministically from each program's own
//! base facts — interleaved adds and retracts, existing and fresh
//! constants — and go through the textual `parse_edit_script` path, so
//! the script format itself is under test. Inputs: the paper's worked
//! examples, every datagen family (random facts attached when a family
//! has none), and random guarded programs over random databases.

use chasekit::core::display::atom_to_string;
use chasekit::core::hom_equivalent;
use chasekit::datagen::database::{random_database, DbConfig};
use chasekit::datagen::random::{random_guarded, RandomConfig};
use chasekit::engine::{
    canonical_form, check_support, edited_program, is_model, parse_edit_script, ChaseConfig,
    ChaseMachine,
};
use chasekit::prelude::*;

const VARIANTS: [ChaseVariant; 3] =
    [ChaseVariant::Oblivious, ChaseVariant::SemiOblivious, ChaseVariant::Restricted];

const BUDGET_APPLICATIONS: u64 = 300;
const BUDGET_ATOMS: usize = 4_000;

fn budget() -> Budget {
    Budget::applications(BUDGET_APPLICATIONS).with_atoms(BUDGET_ATOMS)
}

/// A tiny deterministic generator so scripts are stable across runs.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0.max(1);
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn pick(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// The test corpus: every program carries base facts (families without
/// any get a random database attached as program facts, so retraction
/// has something to bite on).
fn corpus() -> Vec<(String, Program)> {
    let mut out = Vec::new();
    for family in chasekit::datagen::corpus() {
        let mut program = family.program.clone();
        if program.facts().is_empty() {
            let db = random_database(&mut program, &DbConfig { facts: 8, constants: 4 }, 11);
            for atom in db.iter() {
                program.add_fact(atom.1.to_atom()).unwrap();
            }
        }
        if !program.facts().is_empty() {
            out.push((family.name.clone(), program));
        }
    }
    for seed in [1u64, 2, 3] {
        let cfg = RandomConfig::default();
        let mut program = random_guarded(&cfg, 90_000 + seed);
        let db = random_database(&mut program, &DbConfig { facts: 10, constants: 5 }, seed);
        for atom in db.iter() {
            program.add_fact(atom.1.to_atom()).unwrap();
        }
        if !program.facts().is_empty() {
            out.push((format!("random-guarded-{seed}"), program));
        }
    }
    out
}

/// Builds a deterministic edit script from the program's own base facts:
/// interleaved retracts (of existing base facts) and adds (same
/// predicates, mixing constants already in the facts with fresh ones),
/// plus the comment and blank-line syntax, so the parser is exercised too.
fn edit_script(program: &Program, seed: u64) -> String {
    let mut rng = XorShift(seed);
    let facts = program.facts();
    let vocab = &program.vocab;
    let mut script = String::from("% generated edit script\n\n");
    let rounds = 2 + rng.pick(2); // 2 or 3 interleaved rounds
    for round in 0..rounds {
        let victim = &facts[rng.pick(facts.len())];
        script.push_str(&format!("retract {}.\n", atom_to_string(victim, vocab, None)));
        // An added fact over some base fact's predicate: half the args
        // reuse that fact's constants, half are fresh constants.
        let template = &facts[rng.pick(facts.len())];
        let args: Vec<String> = template
            .args
            .iter()
            .enumerate()
            .map(|(i, t)| {
                if rng.pick(2) == 0 {
                    format!("zz{seed}_{round}_{i}")
                } else {
                    atom_term(t, vocab)
                }
            })
            .collect();
        let pred = vocab.pred_name(template.pred);
        script.push_str(&format!("add {}({}).\n", pred, args.join(", ")));
    }
    script
}

fn atom_term(t: &Term, vocab: &chasekit::core::vocab::Vocabulary) -> String {
    chasekit::core::display::term_to_string(*t, vocab, None)
}

/// The differential: in-place DRed repair vs from-scratch rebuild, all
/// variants, sequential (tracked machines are sequential by contract for
/// updates). Saturated pairs are compared exactly; budget-stopped runs
/// (diverging families) still get the support invariant checked.
#[test]
fn incremental_update_matches_from_scratch_chase() {
    let mut exact_comparisons = 0usize;
    for (name, base) in corpus() {
        let script = edit_script(&base, 0xC0FFEE ^ base.facts().len() as u64);
        for variant in VARIANTS {
            let mut program = base.clone();
            let edits = parse_edit_script(&script, &mut program)
                .unwrap_or_else(|e| panic!("{name}: script {script:?}: {e}"));

            // In-place: chase the original base, then repair.
            let cfg = ChaseConfig::of(variant).with_derivation();
            let mut live = ChaseMachine::new(
                &program,
                cfg,
                Instance::from_atoms(program.facts().iter().cloned()),
            );
            live.run(&budget());
            let completion = Budget::applications(
                live.stats().applications + BUDGET_APPLICATIONS,
            )
            .with_atoms(BUDGET_ATOMS);
            let report = live
                .apply_edits(&edits, &completion)
                .unwrap_or_else(|e| panic!("{name} {variant:?}: {e}"));
            check_support(live.instance(), live.derivation())
                .unwrap_or_else(|e| panic!("{name} {variant:?}: support broken: {e}"));

            // From scratch: chase the edited program.
            let edited = edited_program(&program, &edits);
            let mut scratch = ChaseMachine::new(
                &edited,
                cfg,
                Instance::from_atoms(edited.facts().iter().cloned()),
            );
            let scratch_stop = scratch.run(&budget());
            check_support(scratch.instance(), scratch.derivation())
                .unwrap_or_else(|e| panic!("{name} {variant:?}: scratch support: {e}"));

            // Exact comparison only when both runs reached the fixpoint;
            // a budget stop leaves order-dependent prefixes on both sides.
            if report.outcome != StopReason::Saturated || scratch_stop != StopReason::Saturated
            {
                continue;
            }
            match variant {
                ChaseVariant::Restricted => {
                    assert!(
                        is_model(&edited, live.instance()),
                        "{name}: repaired restricted instance is not a model"
                    );
                    assert!(
                        is_model(&edited, scratch.instance()),
                        "{name}: scratch restricted instance is not a model"
                    );
                    assert!(
                        hom_equivalent(live.instance(), scratch.instance()),
                        "{name}: restricted repair not hom-equivalent to rebuild"
                    );
                }
                _ => {
                    assert_eq!(
                        canonical_form(live.instance(), live.derivation()),
                        canonical_form(scratch.instance(), scratch.derivation()),
                        "{name} {variant:?}: repair and rebuild differ canonically"
                    );
                }
            }
            exact_comparisons += 1;
        }
    }
    assert!(
        exact_comparisons >= 12,
        "only {exact_comparisons} saturated comparisons — corpus too divergent to mean much"
    );
}

/// A second-order differential: applying a script in one `apply_edits`
/// call and applying it one edit at a time must land on the same state —
/// per-edit repairs compose.
#[test]
fn edit_scripts_compose_edit_by_edit() {
    for (name, base) in corpus().into_iter().take(6) {
        let script = edit_script(&base, 0xFACADE ^ base.facts().len() as u64);
        let mut program = base.clone();
        let edits = parse_edit_script(&script, &mut program).unwrap();
        for variant in [ChaseVariant::Oblivious, ChaseVariant::SemiOblivious] {
            let cfg = ChaseConfig::of(variant).with_derivation();
            let initial = Instance::from_atoms(program.facts().iter().cloned());

            let mut batch = ChaseMachine::new(&program, cfg, initial.clone());
            batch.run(&budget());
            let b = Budget::applications(batch.stats().applications + BUDGET_APPLICATIONS)
                .with_atoms(BUDGET_ATOMS);
            let batch_report = batch.apply_edits(&edits, &b).unwrap();

            let mut stepwise = ChaseMachine::new(&program, cfg, initial);
            stepwise.run(&budget());
            let mut step_outcome = StopReason::Saturated;
            for edit in &edits {
                let b = Budget::applications(
                    stepwise.stats().applications + BUDGET_APPLICATIONS,
                )
                .with_atoms(BUDGET_ATOMS);
                step_outcome =
                    stepwise.apply_edits(std::slice::from_ref(edit), &b).unwrap().outcome;
            }
            if batch_report.outcome != StopReason::Saturated
                || step_outcome != StopReason::Saturated
            {
                continue;
            }
            assert_eq!(
                canonical_form(batch.instance(), batch.derivation()),
                canonical_form(stepwise.instance(), stepwise.derivation()),
                "{name} {variant:?}: batch and stepwise edits diverge"
            );
        }
    }
}
