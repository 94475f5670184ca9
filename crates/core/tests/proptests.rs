//! Property-based tests for the core crate: parser robustness and
//! round-trips, the homomorphism matcher against a brute-force oracle, and
//! tombstone retraction over the interned instance storage (including an
//! end-to-end DRed pass through the engine's update path).

use proptest::prelude::*;

use chasekit_core::display::program_to_string;
use chasekit_core::{
    find_all_homs, Atom, AtomId, ConstId, Instance, PredId, Program, Substitution, Term, VarId,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The parser never panics on arbitrary input (it may error).
    #[test]
    fn parser_never_panics(input in ".{0,200}") {
        let _ = Program::parse(&input);
    }

    /// The parser never panics on "almost valid" rule-shaped input.
    #[test]
    fn parser_never_panics_on_rule_shaped_input(
        tokens in proptest::collection::vec(
            prop_oneof![
                Just("p".to_string()),
                Just("Q".to_string()),
                Just("(".to_string()),
                Just(")".to_string()),
                Just(",".to_string()),
                Just("->".to_string()),
                Just(".".to_string()),
                Just("'a b'".to_string()),
                Just("_".to_string()),
                Just("%c\n".to_string()),
            ],
            0..40,
        )
    ) {
        let input = tokens.join(" ");
        let _ = Program::parse(&input);
    }

    /// Pretty-printing a parsed program and re-parsing yields the same
    /// program (fixpoint after one round trip).
    #[test]
    fn display_parse_roundtrip_is_a_fixpoint(
        // Generate tiny random programs textually from safe fragments.
        rules in proptest::collection::vec((0usize..3, 0usize..3, 0usize..3), 1..5)
    ) {
        let preds = ["alpha", "beta", "gamma"];
        let mut src = String::new();
        for (b, h, v) in rules {
            src.push_str(&format!(
                "{}(X{v}, Y) -> {}(Y, Z{v}).\n",
                preds[b], preds[h]
            ));
        }
        let p1 = Program::parse(&src).unwrap();
        let text1 = program_to_string(&p1);
        let p2 = Program::parse(&text1).unwrap();
        let text2 = program_to_string(&p2);
        prop_assert_eq!(text1, text2);
    }
}

/// Brute-force homomorphism enumeration: try every assignment of variables
/// to instance terms.
fn oracle_homs(patterns: &[Atom], var_count: usize, instance: &Instance) -> Vec<Vec<Option<Term>>> {
    let mut universe: Vec<Term> =
        instance.iter().flat_map(|(_, atom)| atom.args.iter().copied()).collect();
    universe.sort();
    universe.dedup();
    let mut results = Vec::new();
    let mut assignment: Vec<Option<Term>> = vec![None; var_count];

    fn satisfied(patterns: &[Atom], assignment: &[Option<Term>], instance: &Instance) -> bool {
        patterns.iter().all(|p| {
            let image = p.map_args(|t| match t {
                Term::Var(v) => assignment[v.index()].expect("total assignment"),
                other => other,
            });
            instance.contains(&image)
        })
    }

    fn recurse(
        i: usize,
        universe: &[Term],
        patterns: &[Atom],
        assignment: &mut Vec<Option<Term>>,
        instance: &Instance,
        results: &mut Vec<Vec<Option<Term>>>,
    ) {
        if i == assignment.len() {
            if satisfied(patterns, assignment, instance) {
                results.push(assignment.clone());
            }
            return;
        }
        for &t in universe {
            assignment[i] = Some(t);
            recurse(i + 1, universe, patterns, assignment, instance, results);
        }
        assignment[i] = None;
    }

    recurse(0, &universe, patterns, &mut assignment, instance, &mut results);
    results
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The backtracking matcher finds exactly the homomorphisms the
    /// brute-force oracle finds (for patterns using every variable).
    #[test]
    fn matcher_matches_brute_force_oracle(
        facts in proptest::collection::vec((0u32..2, 0u32..3, 0u32..3), 1..8),
        pattern_spec in proptest::collection::vec((0u32..2, 0u32..2, 0u32..2), 1..3),
    ) {
        // Instance over two binary predicates and three constants.
        let instance = Instance::from_atoms(facts.iter().map(|&(p, a, b)| {
            Atom::new(PredId(p), vec![Term::Const(ConstId(a)), Term::Const(ConstId(b))])
        }));
        // Patterns over two variables.
        let patterns: Vec<Atom> = pattern_spec
            .iter()
            .map(|&(p, v1, v2)| {
                Atom::new(PredId(p), vec![Term::Var(VarId(v1)), Term::Var(VarId(v2))])
            })
            .collect();
        // Only compare when both variables occur (else the oracle
        // enumerates unconstrained variables the matcher leaves unbound).
        let uses_both = patterns.iter().any(|a| a.mentions(Term::Var(VarId(0))))
            && patterns.iter().any(|a| a.mentions(Term::Var(VarId(1))));
        prop_assume!(uses_both);

        let fast: Vec<Vec<Option<Term>>> = find_all_homs(&patterns, 2, &instance, None)
            .iter()
            .map(|s: &Substitution| vec![s.get(VarId(0)), s.get(VarId(1))])
            .collect();
        let slow = oracle_homs(&patterns, 2, &instance);

        let mut fast_sorted = fast;
        fast_sorted.sort();
        let mut slow_sorted = slow;
        slow_sorted.sort();
        prop_assert_eq!(fast_sorted, slow_sorted);
    }

    /// The oracle comparison on the interned arena store with *mixed
    /// arities*: predicate k has arity k+1, so atoms of different widths
    /// interleave in the shared term arena and the dedup table must
    /// distinguish them by slice content, not just predicate.
    #[test]
    fn matcher_matches_oracle_on_mixed_arity_interned_store(
        facts in proptest::collection::vec((0u32..3, 0u32..3, 0u32..3, 0u32..3), 1..10),
        pattern_spec in proptest::collection::vec((0u32..3, 0u32..2, 0u32..2, 0u32..2), 1..3),
    ) {
        let instance = Instance::from_atoms(facts.iter().map(|&(p, a, b, c)| {
            let args: Vec<Term> = [a, b, c][..(p as usize + 1)]
                .iter()
                .map(|&x| Term::Const(ConstId(x)))
                .collect();
            Atom::new(PredId(p), args)
        }));
        let patterns: Vec<Atom> = pattern_spec
            .iter()
            .map(|&(p, v1, v2, v3)| {
                let args: Vec<Term> = [v1, v2, v3][..(p as usize + 1)]
                    .iter()
                    .map(|&v| Term::Var(VarId(v)))
                    .collect();
                Atom::new(PredId(p), args)
            })
            .collect();
        let uses_both = patterns.iter().any(|a| a.mentions(Term::Var(VarId(0))))
            && patterns.iter().any(|a| a.mentions(Term::Var(VarId(1))));
        prop_assume!(uses_both);

        let fast: Vec<Vec<Option<Term>>> = find_all_homs(&patterns, 2, &instance, None)
            .iter()
            .map(|s: &Substitution| vec![s.get(VarId(0)), s.get(VarId(1))])
            .collect();
        let slow = oracle_homs(&patterns, 2, &instance);

        let mut fast_sorted = fast;
        fast_sorted.sort();
        let mut slow_sorted = slow;
        slow_sorted.sort();
        prop_assert_eq!(fast_sorted, slow_sorted);
    }

    /// Postings consistency on the columnar indexes: every atom is
    /// reachable through every `(pred, pos, term)` posting it participates
    /// in, every posting entry resolves back to an atom that matches its
    /// key, postings stay in insertion (ascending-id) order — the
    /// enumeration-order invariant the deterministic merge relies on —
    /// and re-inserting every fact is a dedup no-op.
    #[test]
    fn postings_and_atoms_are_bidirectionally_consistent(
        facts in proptest::collection::vec((0u32..3, 0u32..4, 0u32..4, 0u32..4), 1..20),
    ) {
        let atoms: Vec<Atom> = facts
            .iter()
            .map(|&(p, a, b, c)| {
                let args: Vec<Term> = [a, b, c][..(p as usize + 1)]
                    .iter()
                    .map(|&x| Term::Const(ConstId(x)))
                    .collect();
                Atom::new(PredId(p), args)
            })
            .collect();
        let mut instance = Instance::from_atoms(atoms.iter().cloned());

        // Forward: every atom appears in its predicate extension and in
        // the posting for each of its (position, term) pairs.
        for (id, atom) in instance.iter() {
            prop_assert!(instance.with_pred(atom.pred).contains(&id));
            for (pos, &term) in atom.args.iter().enumerate() {
                let posting = instance.with_pred_pos_term(atom.pred, pos, term);
                prop_assert!(
                    posting.contains(&id),
                    "atom {:?} missing from posting ({:?}, {pos}, {:?})", id, atom.pred, term
                );
            }
        }

        // Backward: every posting entry resolves to an atom matching the
        // posting key, and postings are strictly ascending (insertion
        // order over dense ids).
        for p in 0u32..3 {
            let pred = PredId(p);
            let ext = instance.with_pred(pred);
            prop_assert!(ext.windows(2).all(|w| w[0] < w[1]));
            for &id in ext {
                prop_assert_eq!(instance.atom(id).pred, pred);
            }
            for pos in 0..(p as usize + 1) {
                for t in 0u32..4 {
                    let term = Term::Const(ConstId(t));
                    let posting = instance.with_pred_pos_term(pred, pos, term);
                    prop_assert!(posting.windows(2).all(|w| w[0] < w[1]));
                    for &id in posting {
                        let atom = instance.atom(id);
                        prop_assert_eq!(atom.pred, pred);
                        prop_assert_eq!(atom.args[pos], term);
                    }
                }
            }
        }

        // Dedup: re-inserting the same facts changes nothing.
        let before = instance.len();
        for atom in &atoms {
            let (_, fresh) = instance.insert(atom.clone());
            prop_assert!(!fresh);
        }
        prop_assert_eq!(instance.len(), before);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Tombstone retraction repairs every index. After retracting a random
    /// subset of atoms: the slab keeps their interned content but dedup
    /// lookups no longer see them, every posting list holds exactly the
    /// live matching atoms in strictly ascending order, and re-inserting a
    /// retracted content allocates a fresh id (ids are never reused).
    #[test]
    fn postings_stay_consistent_after_random_retractions(
        facts in proptest::collection::vec((0u32..3, 0u32..4, 0u32..4, 0u32..4), 1..20),
        kills in proptest::collection::vec(0usize..1024, 1..10),
    ) {
        let atoms: Vec<Atom> = facts
            .iter()
            .map(|&(p, a, b, c)| {
                let args: Vec<Term> = [a, b, c][..(p as usize + 1)]
                    .iter()
                    .map(|&x| Term::Const(ConstId(x)))
                    .collect();
                Atom::new(PredId(p), args)
            })
            .collect();
        let mut instance = Instance::from_atoms(atoms.iter().cloned());
        let slab = instance.slab_len();

        let mut killed: Vec<AtomId> = Vec::new();
        for &k in &kills {
            let id = AtomId::from_index(k % slab);
            if instance.retract(id) {
                killed.push(id);
                // Retracting a tombstone is a no-op.
                prop_assert!(!instance.retract(id));
            }
        }

        // The slab never shrinks; the live count tracks the survivors.
        prop_assert_eq!(instance.slab_len(), slab);
        prop_assert_eq!(instance.len(), slab - killed.len());
        prop_assert_eq!(instance.iter().count(), instance.len());

        // Retracted atoms are invisible to dedup lookups, but their
        // interned content stays readable through the slab.
        for &id in &killed {
            prop_assert!(!instance.is_live(id));
            let gone = instance.atom(id).to_atom();
            prop_assert!(!instance.contains(&gone));
            prop_assert_eq!(instance.id_of(&gone), None);
        }

        // Forward: every survivor appears in its predicate extension and
        // in the posting for each of its (position, term) pairs.
        for (id, atom) in instance.iter() {
            prop_assert!(instance.is_live(id));
            prop_assert!(instance.with_pred(atom.pred).contains(&id));
            for (pos, &term) in atom.args.iter().enumerate() {
                prop_assert!(
                    instance.with_pred_pos_term(atom.pred, pos, term).contains(&id),
                    "survivor {:?} missing from posting ({:?}, {pos}, {:?})",
                    id, atom.pred, term
                );
            }
        }

        // Backward: postings list only live atoms matching their key, and
        // element removal preserved the strictly ascending order.
        for p in 0u32..3 {
            let pred = PredId(p);
            let ext = instance.with_pred(pred);
            prop_assert!(ext.windows(2).all(|w| w[0] < w[1]));
            for &id in ext {
                prop_assert!(instance.is_live(id));
                prop_assert_eq!(instance.atom(id).pred, pred);
            }
            for pos in 0..(p as usize + 1) {
                for t in 0u32..4 {
                    let term = Term::Const(ConstId(t));
                    let posting = instance.with_pred_pos_term(pred, pos, term);
                    prop_assert!(posting.windows(2).all(|w| w[0] < w[1]));
                    for &id in posting {
                        prop_assert!(instance.is_live(id));
                        let atom = instance.atom(id);
                        prop_assert_eq!(atom.pred, pred);
                        prop_assert_eq!(atom.args[pos], term);
                    }
                }
            }
        }

        // Ids are never reused: re-inserting a retracted content is fresh,
        // lands past the original slab, and becomes visible again.
        for &id in &killed {
            let atom = instance.atom(id).to_atom();
            let (new_id, fresh) = instance.insert(atom.clone());
            prop_assert!(fresh);
            prop_assert!(new_id.index() >= slab);
            prop_assert!(instance.contains(&atom));
            prop_assert_eq!(instance.id_of(&atom), Some(new_id));
        }
        prop_assert_eq!(instance.len(), slab);
    }

    /// DRed retraction never strands a survivor and loses nothing. After
    /// chasing a random database and retracting random base facts, every
    /// live atom without a DAG creator is a surviving base fact, every
    /// surviving base fact is still live, and the engine's `check_support`
    /// audit (live parents, acyclic derivations) passes — under all three
    /// chase variants, both right after the retractions and after the
    /// completion chase drains re-admitted work. After completion the
    /// machine also equals a from-scratch chase of the edited base.
    #[test]
    fn retraction_leaves_no_unsupported_survivors(
        p_facts in proptest::collection::vec((0u32..3, 0u32..3), 1..6),
        q_facts in proptest::collection::vec(0u32..3, 0..3),
        kills in proptest::collection::vec(0usize..1024, 1..4),
    ) {
        use chasekit_core::hom_equivalent;
        use chasekit_engine::{
            canonical_form, check_support, edited_program, is_model, Budget, ChaseConfig,
            ChaseMachine, ChaseVariant, Edit,
        };

        // q(Y) is both derivable and (sometimes) a base fact, so kills can
        // exercise the restoration path; the existential keeps nulls in
        // the cone.
        let text = "p(X, Y) -> q(Y). q(X) -> r(X, Z). r(X, Y), q(X) -> s(X).";
        let variants =
            [ChaseVariant::Oblivious, ChaseVariant::SemiOblivious, ChaseVariant::Restricted];
        for variant in variants {
            let mut program = Program::parse(text).unwrap();
            let p = program.vocab.pred("p").unwrap();
            let q = program.vocab.pred("q").unwrap();
            for &(a, b) in &p_facts {
                let ca = Term::Const(program.vocab.intern_const(&format!("c{a}")));
                let cb = Term::Const(program.vocab.intern_const(&format!("c{b}")));
                program.add_fact(Atom::new(p, vec![ca, cb])).unwrap();
            }
            for &a in &q_facts {
                let ca = Term::Const(program.vocab.intern_const(&format!("c{a}")));
                program.add_fact(Atom::new(q, vec![ca])).unwrap();
            }
            let base: Vec<Atom> = program.facts().to_vec();
            let mut survivors: Vec<Atom> = Vec::new();
            for fact in &base {
                if !survivors.contains(fact) {
                    survivors.push(fact.clone());
                }
            }

            let initial = Instance::from_atoms(base.iter().cloned());
            let cfg = ChaseConfig::of(variant).with_derivation();
            let mut machine = ChaseMachine::new(&program, cfg, initial);
            machine.run(&Budget::applications(2_000));

            let mut tried: Vec<Atom> = Vec::new();
            for &k in &kills {
                let target = base[k % base.len()].clone();
                // A content retracted once may come back as a *derived*
                // atom (restoration); retracting it again is then the
                // documented NotABaseFact error, so each content is
                // retracted at most once.
                if tried.contains(&target) {
                    continue;
                }
                tried.push(target.clone());
                machine.retract_fact(&target).unwrap();
                if let Some(at) = survivors.iter().position(|f| *f == target) {
                    survivors.remove(at);
                }
            }

            // Audit right after the retractions, then again once the
            // completion chase has drained re-opened restricted skips.
            for phase in ["after retraction", "after completion"] {
                check_support(machine.instance(), machine.derivation())
                    .map_err(|e| TestCaseError::fail(format!("{variant:?} {phase}: {e}")))?;
                for (id, atom) in machine.instance().iter() {
                    if machine.derivation().creator_of(id).is_none() {
                        prop_assert!(
                            survivors.contains(&atom.to_atom()),
                            "{variant:?} {phase}: creator-less atom {:?} is not a \
                             surviving base fact",
                            atom.to_atom()
                        );
                    }
                }
                for fact in &survivors {
                    prop_assert!(
                        machine.instance().contains(fact),
                        "{variant:?} {phase}: surviving base fact {fact:?} vanished"
                    );
                }
                if phase == "after retraction" {
                    let total = machine.stats().applications + 2_000;
                    prop_assert!(machine.run(&Budget::applications(total)).is_saturated());
                }
            }

            // Completeness: the repaired machine equals a from-scratch
            // chase of the edited base. `p(X, Y) -> q(Y)` gives bodies with
            // one frontier image, so this fails if repair re-derives only
            // through the body match that fired first.
            let edits: Vec<Edit> = tried.iter().cloned().map(Edit::Retract).collect();
            let edited = edited_program(&program, &edits);
            let mut reference = ChaseMachine::new(
                &edited,
                cfg,
                Instance::from_atoms(edited.facts().iter().cloned()),
            );
            prop_assert!(reference.run(&Budget::applications(2_000)).is_saturated());
            if variant == ChaseVariant::Restricted {
                prop_assert!(
                    is_model(&edited, machine.instance()),
                    "restricted repair is not a model of the edited base"
                );
                prop_assert!(
                    hom_equivalent(machine.instance(), reference.instance()),
                    "restricted repair is not hom-equivalent to a from-scratch chase"
                );
            } else {
                prop_assert_eq!(
                    canonical_form(machine.instance(), machine.derivation()),
                    canonical_form(reference.instance(), reference.derivation()),
                    "{variant:?}: repair differs from a from-scratch chase"
                );
            }
        }
    }
}
