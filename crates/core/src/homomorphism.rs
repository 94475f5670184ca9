//! Homomorphisms: matching conjunctions of atoms against instances.
//!
//! This is the chase's inner loop. The matcher is a backtracking join with
//! dynamic atom ordering: at every step it picks the remaining body atom
//! with the fewest candidate facts, found through the instance's
//! `(predicate, position, term)` postings.

use std::ops::ControlFlow;

use crate::atom::{Atom, AtomRef};
use crate::ids::{AtomId, VarId};
use crate::instance::Instance;
use crate::term::Term;

/// A partial assignment of rule variables to ground terms.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Substitution {
    slots: Vec<Option<Term>>,
}

impl Substitution {
    /// Creates an empty substitution over `var_count` variables.
    pub fn new(var_count: usize) -> Self {
        Substitution { slots: vec![None; var_count] }
    }

    /// Clears all bindings and resizes to `var_count` slots, reusing the
    /// existing allocation.
    #[inline]
    pub fn reset(&mut self, var_count: usize) {
        self.slots.clear();
        self.slots.resize(var_count, None);
    }

    /// Makes `self` a copy of `other`, reusing the existing allocation.
    #[inline]
    fn copy_from(&mut self, other: &Substitution) {
        self.slots.clear();
        self.slots.extend_from_slice(&other.slots);
    }

    /// Returns the binding of `v`, if any.
    #[inline]
    pub fn get(&self, v: VarId) -> Option<Term> {
        self.slots[v.index()]
    }

    /// Binds `v` to `t`.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `v` is already bound or `t` is not ground.
    #[inline]
    pub fn bind(&mut self, v: VarId, t: Term) {
        debug_assert!(self.slots[v.index()].is_none(), "double bind of {v:?}");
        debug_assert!(t.is_ground(), "binding to non-ground term");
        self.slots[v.index()] = Some(t);
    }

    /// Removes the binding of `v`.
    #[inline]
    fn unbind(&mut self, v: VarId) {
        self.slots[v.index()] = None;
    }

    /// Applies the substitution to a term. Unbound variables stay variables.
    #[inline]
    pub fn apply(&self, t: Term) -> Term {
        match t {
            Term::Var(v) => self.slots[v.index()].unwrap_or(t),
            other => other,
        }
    }

    /// Applies the substitution to every argument of an atom.
    pub fn apply_atom(&self, a: &Atom) -> Atom {
        a.map_args(|t| self.apply(t))
    }

    /// Every slot's binding, in variable order.
    #[inline]
    pub fn slots(&self) -> &[Option<Term>] {
        &self.slots
    }

    /// Number of variable slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the substitution has no slots at all.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }
}

/// Tries to unify `pattern` (which may contain variables) with the ground
/// atom `fact` under `subst`, pushing new bindings onto `trail`.
///
/// On failure the caller must pop the trail; this function only guarantees
/// that every binding it added is recorded there.
fn unify_atom(
    pattern: &Atom,
    fact: AtomRef<'_>,
    subst: &mut Substitution,
    trail: &mut Vec<VarId>,
) -> bool {
    debug_assert_eq!(pattern.pred, fact.pred);
    debug_assert_eq!(pattern.arity(), fact.arity());
    for (p, f) in pattern.args.iter().zip(fact.args) {
        match *p {
            Term::Var(v) => match subst.get(v) {
                Some(bound) => {
                    if bound != *f {
                        return false;
                    }
                }
                None => {
                    subst.bind(v, *f);
                    trail.push(v);
                }
            },
            ground => {
                if ground != *f {
                    return false;
                }
            }
        }
    }
    true
}

/// Counts how selective each remaining pattern is and returns the candidate
/// atom ids for the most selective access path.
fn candidates<'i>(pattern: &Atom, subst: &Substitution, instance: &'i Instance) -> &'i [AtomId] {
    let mut best: Option<&[AtomId]> = None;
    for (pos, &t) in pattern.args.iter().enumerate() {
        let ground = match t {
            Term::Var(v) => match subst.get(v) {
                Some(g) => g,
                None => continue,
            },
            g => g,
        };
        let posting = instance.with_pred_pos_term(pattern.pred, pos, ground);
        if best.is_none_or(|b| posting.len() < b.len()) {
            best = Some(posting);
        }
    }
    best.unwrap_or_else(|| instance.with_pred(pattern.pred))
}

/// Reusable matcher state: substitution slots, the remaining-atom
/// permutation, and the binding trail.
///
/// Enumeration through the `_scratch` entry points resets and reuses these
/// buffers, so steady-state matching performs no heap allocation at all —
/// the chase machine owns one scratch for its whole run. A fresh
/// `MatchScratch::default()` is equally valid; the scratch-free wrappers
/// construct one per call.
#[derive(Debug, Default, Clone)]
pub struct MatchScratch {
    subst: Substitution,
    remaining: Vec<usize>,
    trail: Vec<VarId>,
}

/// Enumerates homomorphisms from the conjunction `atoms` into `instance`.
///
/// * `var_count` — number of variable slots (from the owning rule).
/// * `init` — optional partial substitution to extend (used for head
///   satisfaction checks, where the frontier is pre-bound).
/// * `pinned` — optional requirement that `atoms[i]` maps exactly to the
///   instance atom `id` (used for delta-driven trigger generation).
/// * `f` — called once per complete homomorphism; return
///   `ControlFlow::Break(())` to stop early.
///
/// Returns `true` if enumeration ran to completion, `false` if `f` broke.
pub fn for_each_hom(
    atoms: &[Atom],
    var_count: usize,
    instance: &Instance,
    init: Option<&Substitution>,
    pinned: Option<(usize, AtomId)>,
    f: &mut dyn FnMut(&Substitution) -> ControlFlow<()>,
) -> bool {
    let mut scratch = MatchScratch::default();
    for_each_hom_scratch(atoms, var_count, instance, init, pinned, &mut scratch, f)
}

/// [`for_each_hom`] with caller-owned scratch buffers: identical
/// enumeration, zero allocation once the scratch has warmed up.
pub fn for_each_hom_scratch(
    atoms: &[Atom],
    var_count: usize,
    instance: &Instance,
    init: Option<&Substitution>,
    pinned: Option<(usize, AtomId)>,
    scratch: &mut MatchScratch,
    f: &mut dyn FnMut(&Substitution) -> ControlFlow<()>,
) -> bool {
    let MatchScratch { subst, remaining, trail } = scratch;
    match init {
        Some(s) => {
            debug_assert_eq!(s.len(), var_count);
            subst.copy_from(s);
        }
        None => subst.reset(var_count),
    }
    remaining.clear();
    remaining.extend(0..atoms.len());
    trail.clear();

    // Pin first if requested: unify atoms[i] with the given fact up front.
    if let Some((idx, fact_id)) = pinned {
        let fact = instance.atom(fact_id);
        if fact.pred != atoms[idx].pred || fact.arity() != atoms[idx].arity() {
            return true;
        }
        let mark = trail.len();
        if !unify_atom(&atoms[idx], fact, subst, trail) {
            for v in trail.drain(mark..) {
                subst.unbind(v);
            }
            return true;
        }
        remaining.retain(|&i| i != idx);
    }

    fn recurse(
        atoms: &[Atom],
        remaining: &mut Vec<usize>,
        subst: &mut Substitution,
        trail: &mut Vec<VarId>,
        instance: &Instance,
        f: &mut dyn FnMut(&Substitution) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        if remaining.is_empty() {
            return f(subst);
        }
        // Pick the most selective remaining atom.
        let (slot, _) = remaining
            .iter()
            .enumerate()
            .map(|(slot, &i)| (slot, candidates(&atoms[i], subst, instance).len()))
            .min_by_key(|&(_, n)| n)
            .expect("remaining is non-empty");
        let atom_idx = remaining.swap_remove(slot);
        // The posting borrows the instance, not the substitution, so it can
        // be walked in place while bindings change — no copy needed.
        let cands = candidates(&atoms[atom_idx], subst, instance);

        for &fact_id in cands {
            let fact = instance.atom(fact_id);
            if fact.arity() != atoms[atom_idx].arity() {
                continue;
            }
            let mark = trail.len();
            if unify_atom(&atoms[atom_idx], fact, subst, trail)
                && recurse(atoms, remaining, subst, trail, instance, f).is_break()
            {
                for v in trail.drain(mark..) {
                    subst.unbind(v);
                }
                // Restore `remaining` before unwinding.
                remaining.push(atom_idx);
                let last = remaining.len() - 1;
                remaining.swap(slot, last);
                return ControlFlow::Break(());
            }
            for v in trail.drain(mark..) {
                subst.unbind(v);
            }
        }
        remaining.push(atom_idx);
        let last = remaining.len() - 1;
        remaining.swap(slot, last);
        ControlFlow::Continue(())
    }

    recurse(atoms, remaining, subst, trail, instance, f).is_continue()
}

/// Collects all homomorphisms from `atoms` into `instance`.
pub fn find_all_homs(
    atoms: &[Atom],
    var_count: usize,
    instance: &Instance,
    init: Option<&Substitution>,
) -> Vec<Substitution> {
    let mut out = Vec::new();
    for_each_hom(atoms, var_count, instance, init, None, &mut |s| {
        out.push(s.clone());
        ControlFlow::Continue(())
    });
    out
}

/// Whether some extension of `init` maps every atom of `atoms` into
/// `instance` (the restricted chase's head-satisfaction test).
pub fn exists_extension(
    atoms: &[Atom],
    var_count: usize,
    instance: &Instance,
    init: &Substitution,
) -> bool {
    let mut scratch = MatchScratch::default();
    exists_extension_scratch(atoms, var_count, instance, init, &mut scratch)
}

/// [`exists_extension`] with caller-owned scratch buffers.
pub fn exists_extension_scratch(
    atoms: &[Atom],
    var_count: usize,
    instance: &Instance,
    init: &Substitution,
    scratch: &mut MatchScratch,
) -> bool {
    !for_each_hom_scratch(atoms, var_count, instance, Some(init), None, scratch, &mut |_| {
        ControlFlow::Break(())
    })
}

/// Whether there is a homomorphism from `src` to `dst`: a mapping of nulls
/// to terms (identity on constants) under which every atom of `src` is in
/// `dst`. Used to verify universality of chase results.
pub fn instance_hom_exists(src: &Instance, dst: &Instance) -> bool {
    // Reinterpret src's nulls as variables (null ids may be sparse, so remap
    // densely first).
    let mut null_to_var: crate::fxhash::FxHashMap<crate::ids::NullId, VarId> =
        crate::fxhash::FxHashMap::default();
    let mut patterns = Vec::with_capacity(src.len());
    for (_, a) in src.iter() {
        patterns.push(a.map_args(|t| match t {
            Term::Null(n) => {
                let next = VarId::from_index(null_to_var.len());
                Term::Var(*null_to_var.entry(n).or_insert(next))
            }
            other => other,
        }));
    }
    let var_count = null_to_var.len();
    if patterns.is_empty() {
        return true;
    }
    !for_each_hom(&patterns, var_count, dst, None, None, &mut |_| ControlFlow::Break(()))
}

/// Whether `src` and `dst` are homomorphically equivalent.
pub fn hom_equivalent(a: &Instance, b: &Instance) -> bool {
    instance_hom_exists(a, b) && instance_hom_exists(b, a)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{ConstId, NullId, PredId};

    fn c(i: u32) -> Term {
        Term::Const(ConstId(i))
    }
    fn v(i: u32) -> Term {
        Term::Var(VarId(i))
    }
    fn n(i: u32) -> Term {
        Term::Null(NullId(i))
    }
    fn atom(p: u32, args: Vec<Term>) -> Atom {
        Atom::new(PredId(p), args)
    }

    fn edge_instance(edges: &[(u32, u32)]) -> Instance {
        Instance::from_atoms(edges.iter().map(|&(a, b)| atom(0, vec![c(a), c(b)])))
    }

    #[test]
    fn single_atom_matching() {
        let inst = edge_instance(&[(0, 1), (1, 2), (2, 0)]);
        let homs = find_all_homs(&[atom(0, vec![v(0), v(1)])], 2, &inst, None);
        assert_eq!(homs.len(), 3);
    }

    #[test]
    fn join_via_shared_variable() {
        // path of length 2: e(X, Y), e(Y, Z)
        let inst = edge_instance(&[(0, 1), (1, 2), (1, 3)]);
        let body = [atom(0, vec![v(0), v(1)]), atom(0, vec![v(1), v(2)])];
        let homs = find_all_homs(&body, 3, &inst, None);
        // 0->1->2, 0->1->3
        assert_eq!(homs.len(), 2);
        for h in &homs {
            assert_eq!(h.get(VarId(0)), Some(c(0)));
            assert_eq!(h.get(VarId(1)), Some(c(1)));
        }
    }

    #[test]
    fn repeated_variable_requires_equal_args() {
        let mut inst = edge_instance(&[(0, 1)]);
        inst.insert(atom(0, vec![c(5), c(5)]));
        let homs = find_all_homs(&[atom(0, vec![v(0), v(0)])], 1, &inst, None);
        assert_eq!(homs.len(), 1);
        assert_eq!(homs[0].get(VarId(0)), Some(c(5)));
    }

    #[test]
    fn constants_in_patterns_filter() {
        let inst = edge_instance(&[(0, 1), (0, 2), (3, 1)]);
        let homs = find_all_homs(&[atom(0, vec![c(0), v(0)])], 1, &inst, None);
        assert_eq!(homs.len(), 2);
    }

    #[test]
    fn pinned_atom_restricts_enumeration() {
        let inst = edge_instance(&[(0, 1), (1, 2)]);
        let body = [atom(0, vec![v(0), v(1)])];
        let pinned_id = inst.id_of(&atom(0, vec![c(1), c(2)])).unwrap();
        let mut seen = Vec::new();
        for_each_hom(&body, 2, &inst, None, Some((0, pinned_id)), &mut |s| {
            seen.push((s.get(VarId(0)).unwrap(), s.get(VarId(1)).unwrap()));
            ControlFlow::Continue(())
        });
        assert_eq!(seen, vec![(c(1), c(2))]);
    }

    #[test]
    fn pinned_atom_participates_in_join() {
        let inst = edge_instance(&[(0, 1), (1, 2), (5, 6)]);
        let body = [atom(0, vec![v(0), v(1)]), atom(0, vec![v(1), v(2)])];
        let pinned_id = inst.id_of(&atom(0, vec![c(1), c(2)])).unwrap();
        // Pin the *second* body atom to e(1,2): only 0->1->2 qualifies.
        let mut count = 0;
        for_each_hom(&body, 3, &inst, None, Some((1, pinned_id)), &mut |s| {
            assert_eq!(s.get(VarId(0)), Some(c(0)));
            count += 1;
            ControlFlow::Continue(())
        });
        assert_eq!(count, 1);
    }

    #[test]
    fn init_substitution_is_respected() {
        let inst = edge_instance(&[(0, 1), (2, 1)]);
        let mut init = Substitution::new(2);
        init.bind(VarId(0), c(2));
        let homs = find_all_homs(&[atom(0, vec![v(0), v(1)])], 2, &inst, Some(&init));
        assert_eq!(homs.len(), 1);
        assert_eq!(homs[0].get(VarId(1)), Some(c(1)));
    }

    #[test]
    fn exists_extension_checks_head_satisfaction() {
        // Head: e(Y, Z) with Y pre-bound.
        let inst = edge_instance(&[(0, 1)]);
        let head = [atom(0, vec![v(0), v(1)])];
        let mut init = Substitution::new(2);
        init.bind(VarId(0), c(0));
        assert!(exists_extension(&head, 2, &inst, &init));
        let mut init2 = Substitution::new(2);
        init2.bind(VarId(0), c(1));
        assert!(!exists_extension(&head, 2, &inst, &init2));
    }

    #[test]
    fn early_break_stops_enumeration() {
        let inst = edge_instance(&[(0, 1), (1, 2), (2, 3)]);
        let mut count = 0;
        let completed =
            for_each_hom(&[atom(0, vec![v(0), v(1)])], 2, &inst, None, None, &mut |_| {
                count += 1;
                ControlFlow::Break(())
            });
        assert!(!completed);
        assert_eq!(count, 1);
    }

    #[test]
    fn zero_ary_atoms_match_trivially() {
        let inst = Instance::from_atoms([atom(7, vec![])]);
        let homs = find_all_homs(&[atom(7, vec![])], 0, &inst, None);
        assert_eq!(homs.len(), 1);
        let none = find_all_homs(&[atom(8, vec![])], 0, &inst, None);
        assert!(none.is_empty());
    }

    #[test]
    fn instance_hom_maps_nulls_to_anything() {
        // src: e(z0, z1); dst: e(a, b) — hom exists.
        let src = Instance::from_atoms([atom(0, vec![n(0), n(1)])]);
        let dst = edge_instance(&[(0, 1)]);
        assert!(instance_hom_exists(&src, &dst));
        // Constants map only to themselves.
        let src2 = edge_instance(&[(7, 8)]);
        assert!(!instance_hom_exists(&src2, &dst));
    }

    #[test]
    fn hom_equivalence_of_a_cycle_and_its_double() {
        // 2-cycle of nulls vs 4-cycle of nulls: homomorphically equivalent
        // (both map onto the 2-cycle... the 4-cycle maps to 2-cycle; 2-cycle
        // maps into 4-cycle? A 2-cycle needs e(x,y),e(y,x); in the 4-cycle
        // there is no such pair, so equivalence must FAIL one direction.)
        let two = Instance::from_atoms([atom(0, vec![n(0), n(1)]), atom(0, vec![n(1), n(0)])]);
        let four = Instance::from_atoms([
            atom(0, vec![n(0), n(1)]),
            atom(0, vec![n(1), n(2)]),
            atom(0, vec![n(2), n(3)]),
            atom(0, vec![n(3), n(0)]),
        ]);
        assert!(instance_hom_exists(&four, &two));
        assert!(!instance_hom_exists(&two, &four));
        assert!(!hom_equivalent(&two, &four));
    }
}
