//! Instances: indexed, deduplicated stores of ground atoms.
//!
//! The chase spends nearly all its time matching rule bodies against the
//! instance, so the layout is built for that loop:
//!
//! * atoms are interned into a shared term arena — an atom is a
//!   `(PredId, args-range)` pair into one flat `Vec<Term>`, resolved to a
//!   zero-copy [`AtomRef`] view, so inserting or reading an atom never
//!   clones an argument vector;
//! * deduplication goes through an open-addressed hash-of-slice table
//!   (`DedupTable`) that compares candidate argument slices in place —
//!   no owned `Atom` keys, no per-probe allocation;
//! * `(predicate, position, term)` postings — the selective index the
//!   homomorphism matcher uses for bound positions — are columnar: a
//!   `Vec<PredIndex>` indexed directly by `PredId`, with one
//!   `FxHashMap<Term, Vec<AtomId>>` per argument position, so the hot
//!   lookup is an array index plus a single one-word hash probe instead
//!   of hashing a 3-tuple.
//!
//! Atom ids are dense and monotone: `AtomId(i)` was inserted before
//! `AtomId(j)` whenever `i < j`. The same holds for null ids. The
//! termination procedures rely on both orders as birth timestamps, and
//! every posting list is in insertion order, which fixes the matcher's
//! enumeration order.

use crate::atom::{Atom, AtomRef};
use crate::fxhash::{FxHashMap, FxHasher};
use crate::ids::{AtomId, NullId, PredId};
use crate::term::Term;
use std::hash::{Hash, Hasher};

/// Columnar postings for a single predicate.
#[derive(Debug, Default, Clone)]
struct PredIndex {
    /// Ids of atoms over this predicate, in insertion order.
    ids: Vec<AtomId>,
    /// Per-position postings: `by_pos[pos][term]` lists the ids of atoms
    /// with `term` at argument position `pos`, in insertion order.
    by_pos: Vec<FxHashMap<Term, Vec<AtomId>>>,
}

/// Open-addressed dedup index from `(pred, args)` to [`AtomId`].
///
/// Keys live in the owning instance's arena; the table stores only
/// `(hash, id)` pairs and resolves collisions by comparing the candidate
/// atom's argument slice in place, so lookups never materialise an owned
/// `Atom`. Linear probing, power-of-two capacity, load factor ≤ 1/2.
#[derive(Debug, Default, Clone)]
struct DedupTable {
    /// `(hash, id + 1)` per slot; an `id + 1` of 0 marks an empty slot.
    slots: Vec<(u64, u32)>,
    len: usize,
}

impl DedupTable {
    /// Finds the id of an entry with this hash for which `eq` holds.
    ///
    /// `eq` receives a candidate atom index and must check full equality;
    /// the table only pre-filters on the stored 64-bit hash.
    #[inline]
    fn lookup(&self, hash: u64, mut eq: impl FnMut(usize) -> bool) -> Option<usize> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut i = (hash as usize) & mask;
        loop {
            let (h, idp1) = self.slots[i];
            if idp1 == 0 {
                return None;
            }
            if h == hash {
                let id = (idp1 - 1) as usize;
                if eq(id) {
                    return Some(id);
                }
            }
            i = (i + 1) & mask;
        }
    }

    /// Inserts a new entry; the caller must have checked it is absent.
    fn insert(&mut self, hash: u64, id: u32) {
        if (self.len + 1) * 2 > self.slots.len() {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut i = (hash as usize) & mask;
        while self.slots[i].1 != 0 {
            i = (i + 1) & mask;
        }
        self.slots[i] = (hash, id + 1);
        self.len += 1;
    }

    fn grow(&mut self) {
        let cap = (self.slots.len() * 2).max(16);
        let old = std::mem::replace(&mut self.slots, vec![(0, 0); cap]);
        let mask = cap - 1;
        for (h, idp1) in old {
            if idp1 == 0 {
                continue;
            }
            let mut i = (h as usize) & mask;
            while self.slots[i].1 != 0 {
                i = (i + 1) & mask;
            }
            self.slots[i] = (h, idp1);
        }
    }

    /// Removes the entry `(hash, id)` if present, using backward-shift
    /// deletion so probe chains stay intact without tombstone slots.
    fn remove(&mut self, hash: u64, id: u32) {
        if self.slots.is_empty() {
            return;
        }
        let mask = self.slots.len() - 1;
        let mut i = (hash as usize) & mask;
        loop {
            let (h, idp1) = self.slots[i];
            if idp1 == 0 {
                return;
            }
            if h == hash && idp1 == id + 1 {
                break;
            }
            i = (i + 1) & mask;
        }
        self.slots[i] = (0, 0);
        self.len -= 1;
        // Backward-shift: any later entry in the same probe cluster whose
        // natural slot lies at or before the vacated slot moves into it.
        let mut j = (i + 1) & mask;
        loop {
            let (h, idp1) = self.slots[j];
            if idp1 == 0 {
                return;
            }
            let natural = (h as usize) & mask;
            let fill_dist = j.wrapping_sub(i) & mask;
            let probe_dist = j.wrapping_sub(natural) & mask;
            if probe_dist >= fill_dist {
                self.slots[i] = (h, idp1);
                self.slots[j] = (0, 0);
                i = j;
            }
            j = (j + 1) & mask;
        }
    }
}

/// Hashes an atom's identity — predicate plus argument slice.
#[inline]
fn hash_parts(pred: PredId, args: &[Term]) -> u64 {
    let mut h = FxHasher::default();
    h.write_u32(pred.0);
    for t in args {
        t.hash(&mut h);
    }
    h.write_usize(args.len());
    h.finish()
}

/// An indexed, deduplicated set of ground atoms.
///
/// Atoms can be **retracted** ([`Instance::retract`]): the slab entry is
/// tombstoned (its interned content stays readable through
/// [`Instance::atom`], so provenance structures holding old ids can still
/// resolve them), while the dedup table and every posting list are
/// repaired so lookups and the matcher only ever see live atoms. Ids are
/// never reused; re-inserting retracted content mints a fresh id.
#[derive(Debug, Default, Clone)]
pub struct Instance {
    /// Predicate of atom `i`.
    preds: Vec<PredId>,
    /// Exclusive end of atom `i`'s argument range in `terms`; atom `i`
    /// spans `ends[i - 1]..ends[i]` (with an implicit 0 for `i == 0`).
    ends: Vec<u32>,
    /// The shared term arena all atoms' arguments live in.
    terms: Vec<Term>,
    dedup: DedupTable,
    /// Columnar postings, indexed directly by `PredId`.
    by_pred: Vec<PredIndex>,
    next_null: u32,
    /// Liveness of atom `i`; retraction tombstones the slab entry.
    live: Vec<bool>,
    /// Number of tombstoned slab entries (`live` flags set to false).
    dead: usize,
}

impl Instance {
    /// Creates an empty instance.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds an instance from ground atoms (e.g. a program's facts).
    ///
    /// # Panics
    ///
    /// Panics if any atom is not ground.
    pub fn from_atoms<I: IntoIterator<Item = Atom>>(atoms: I) -> Self {
        let mut inst = Instance::new();
        for a in atoms {
            assert!(a.is_ground(), "instance atoms must be ground");
            inst.insert(a);
        }
        inst
    }

    /// Inserts an atom; returns its id and whether it was new.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the atom is not ground.
    #[inline]
    pub fn insert(&mut self, atom: Atom) -> (AtomId, bool) {
        self.insert_terms(atom.pred, &atom.args)
    }

    /// Inserts an atom given as predicate + argument slice; returns its id
    /// and whether it was new. The arguments are copied into the arena
    /// only if the atom is new, so callers can reuse one scratch buffer
    /// across insertions.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if any argument is not ground.
    pub fn insert_terms(&mut self, pred: PredId, args: &[Term]) -> (AtomId, bool) {
        debug_assert!(
            args.iter().all(|t| t.is_ground()),
            "instance atoms must be ground"
        );
        let hash = hash_parts(pred, args);
        if let Some(i) = self.lookup(hash, pred, args) {
            return (AtomId::from_index(i), false);
        }
        let id = AtomId::from_index(self.preds.len());
        self.preds.push(pred);
        self.terms.extend_from_slice(args);
        self.ends.push(self.terms.len() as u32);
        self.live.push(true);
        self.dedup.insert(hash, id.0);
        for &t in args {
            if let Term::Null(n) = t {
                // Track the null high-water mark so fresh nulls never collide
                // with nulls imported via `from_atoms`.
                if n.0 >= self.next_null {
                    self.next_null = n.0 + 1;
                }
            }
        }
        let pi_idx = pred.index();
        if self.by_pred.len() <= pi_idx {
            self.by_pred.resize_with(pi_idx + 1, PredIndex::default);
        }
        let pi = &mut self.by_pred[pi_idx];
        pi.ids.push(id);
        if pi.by_pos.len() < args.len() {
            pi.by_pos.resize_with(args.len(), FxHashMap::default);
        }
        for (pos, &t) in args.iter().enumerate() {
            pi.by_pos[pos].entry(t).or_default().push(id);
        }
        (id, true)
    }

    /// Dedup probe: finds an existing atom equal to `(pred, args)`.
    #[inline]
    fn lookup(&self, hash: u64, pred: PredId, args: &[Term]) -> Option<usize> {
        let preds = &self.preds;
        let ends = &self.ends;
        let terms = &self.terms;
        self.dedup.lookup(hash, |i| {
            if preds[i] != pred {
                return false;
            }
            let start = if i == 0 { 0 } else { ends[i - 1] as usize };
            &terms[start..ends[i] as usize] == args
        })
    }

    /// Mints a fresh null, distinct from every null seen so far.
    pub fn fresh_null(&mut self) -> NullId {
        let n = NullId(self.next_null);
        self.next_null += 1;
        n
    }

    /// Number of nulls minted or imported.
    pub fn null_count(&self) -> usize {
        self.next_null as usize
    }

    /// Whether the instance contains the atom.
    pub fn contains(&self, atom: &Atom) -> bool {
        self.id_of(atom).is_some()
    }

    /// Looks up an atom's id.
    pub fn id_of(&self, atom: &Atom) -> Option<AtomId> {
        self.id_of_parts(atom.pred, &atom.args)
    }

    /// Looks up the id of an atom given as predicate + argument slice.
    pub fn id_of_parts(&self, pred: PredId, args: &[Term]) -> Option<AtomId> {
        self.lookup(hash_parts(pred, args), pred, args)
            .map(AtomId::from_index)
    }

    /// Resolves an id to a zero-copy view of its atom.
    ///
    /// Resolves tombstoned ids too: retraction keeps the interned content
    /// so provenance structures can read the atoms they recorded.
    #[inline]
    pub fn atom(&self, id: AtomId) -> AtomRef<'_> {
        let i = id.index();
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        AtomRef {
            pred: self.preds[i],
            args: &self.terms[start..self.ends[i] as usize],
        }
    }

    /// Number of live atoms.
    #[inline]
    pub fn len(&self) -> usize {
        self.preds.len() - self.dead
    }

    /// Number of slab slots ever allocated (live atoms plus tombstones).
    ///
    /// This is the exclusive upper bound on atom ids: every id ever handed
    /// out is `< slab_len()`.
    #[inline]
    pub fn slab_len(&self) -> usize {
        self.preds.len()
    }

    /// Whether the instance has no live atoms.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the id refers to a live (non-retracted) atom.
    ///
    /// # Panics
    ///
    /// Panics if the id was never allocated.
    #[inline]
    pub fn is_live(&self, id: AtomId) -> bool {
        self.live[id.index()]
    }

    /// Retracts a live atom: tombstones its slab entry and removes it from
    /// the dedup table and every posting list (predicate extension and
    /// per-position postings). Returns `false` if the atom was already
    /// retracted.
    ///
    /// The interned content stays readable through [`Instance::atom`] so
    /// provenance structures can still resolve the dead id; `contains`,
    /// `id_of`, and the postings-backed matcher no longer see it. The id
    /// is never reused — re-inserting the same content yields a new id.
    pub fn retract(&mut self, id: AtomId) -> bool {
        let i = id.index();
        if !self.live[i] {
            return false;
        }
        self.live[i] = false;
        self.dead += 1;
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        let pred = self.preds[i];
        let hash = hash_parts(pred, &self.terms[start..self.ends[i] as usize]);
        self.dedup.remove(hash, id.0);
        fn drop_from(posting: &mut Vec<AtomId>, id: AtomId) {
            // Postings are strictly ascending, so binary search applies.
            if let Ok(at) = posting.binary_search(&id) {
                posting.remove(at);
            }
        }
        let pi = &mut self.by_pred[pred.index()];
        drop_from(&mut pi.ids, id);
        let arity = self.ends[i] as usize - start;
        for pos in 0..arity {
            let t = self.terms[start + pos];
            if let Some(posting) = pi.by_pos[pos].get_mut(&t) {
                drop_from(posting, id);
                if posting.is_empty() {
                    pi.by_pos[pos].remove(&t);
                }
            }
        }
        true
    }

    /// Iterates over all live atoms in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (AtomId, AtomRef<'_>)> {
        (0..self.slab_len()).filter_map(|i| {
            if !self.live[i] {
                return None;
            }
            let id = AtomId::from_index(i);
            Some((id, self.atom(id)))
        })
    }

    /// Ids of atoms with the given predicate, in insertion order.
    pub fn with_pred(&self, pred: PredId) -> &[AtomId] {
        self.by_pred
            .get(pred.index())
            .map(|p| p.ids.as_slice())
            .unwrap_or(&[])
    }

    /// Ids of atoms with `term` at `pos` of `pred`, in insertion order.
    #[inline]
    pub fn with_pred_pos_term(&self, pred: PredId, pos: usize, term: Term) -> &[AtomId] {
        self.by_pred
            .get(pred.index())
            .and_then(|p| p.by_pos.get(pos))
            .and_then(|m| m.get(&term))
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// All distinct terms of the live atom set (order unspecified).
    pub fn terms(&self) -> Vec<Term> {
        let mut seen = crate::fxhash::FxHashSet::default();
        let mut out = Vec::new();
        for (_, atom) in self.iter() {
            for &t in atom.args {
                if seen.insert(t) {
                    out.push(t);
                }
            }
        }
        out
    }
}

// Instances cross threads (server jobs, seed-parallel experiments); keep
// the store free of interior mutability.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Instance>();
};

impl FromIterator<Atom> for Instance {
    fn from_iter<I: IntoIterator<Item = Atom>>(iter: I) -> Self {
        Instance::from_atoms(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ConstId;

    fn c(i: u32) -> Term {
        Term::Const(ConstId(i))
    }
    fn n(i: u32) -> Term {
        Term::Null(NullId(i))
    }
    fn atom(p: u32, args: Vec<Term>) -> Atom {
        Atom::new(PredId(p), args)
    }

    #[test]
    fn insert_deduplicates() {
        let mut inst = Instance::new();
        let (id1, new1) = inst.insert(atom(0, vec![c(0), c(1)]));
        let (id2, new2) = inst.insert(atom(0, vec![c(0), c(1)]));
        assert_eq!(id1, id2);
        assert!(new1 && !new2);
        assert_eq!(inst.len(), 1);
    }

    #[test]
    fn ids_are_monotone_in_insertion_order() {
        let mut inst = Instance::new();
        let (a, _) = inst.insert(atom(0, vec![c(0)]));
        let (b, _) = inst.insert(atom(0, vec![c(1)]));
        assert!(a < b);
    }

    #[test]
    fn position_index_finds_atoms() {
        let mut inst = Instance::new();
        inst.insert(atom(0, vec![c(0), c(1)]));
        inst.insert(atom(0, vec![c(0), c(2)]));
        inst.insert(atom(0, vec![c(3), c(1)]));
        inst.insert(atom(1, vec![c(0), c(1)]));
        assert_eq!(inst.with_pred_pos_term(PredId(0), 0, c(0)).len(), 2);
        assert_eq!(inst.with_pred_pos_term(PredId(0), 1, c(1)).len(), 2);
        assert_eq!(inst.with_pred_pos_term(PredId(1), 0, c(0)).len(), 1);
        assert_eq!(inst.with_pred_pos_term(PredId(2), 0, c(0)).len(), 0);
        assert_eq!(inst.with_pred(PredId(0)).len(), 3);
    }

    #[test]
    fn fresh_nulls_avoid_imported_ones() {
        let mut inst = Instance::new();
        inst.insert(atom(0, vec![n(5)]));
        let fresh = inst.fresh_null();
        assert!(fresh.0 > 5);
        let fresh2 = inst.fresh_null();
        assert_ne!(fresh, fresh2);
    }

    #[test]
    fn terms_are_collected_once() {
        let mut inst = Instance::new();
        inst.insert(atom(0, vec![c(0), n(1)]));
        inst.insert(atom(1, vec![c(0)]));
        let mut ts = inst.terms();
        ts.sort();
        assert_eq!(ts, vec![c(0), n(1)]);
    }

    #[test]
    #[should_panic(expected = "ground")]
    #[cfg(debug_assertions)] // the groundness check is a debug_assert!
    fn non_ground_atoms_panic() {
        let mut inst = Instance::new();
        inst.insert(atom(0, vec![Term::Var(crate::ids::VarId(0))]));
    }

    #[test]
    fn from_iterator_collects() {
        let inst: Instance = vec![atom(0, vec![c(0)]), atom(0, vec![c(1)])].into_iter().collect();
        assert_eq!(inst.len(), 2);
    }

    #[test]
    fn atom_resolves_to_interned_view() {
        let mut inst = Instance::new();
        let a = atom(3, vec![c(0), n(1), c(2)]);
        let (id, _) = inst.insert(a.clone());
        let view = inst.atom(id);
        assert_eq!(view, a);
        assert_eq!(view.to_atom(), a);
        assert_eq!(view.arity(), 3);
    }

    #[test]
    fn insert_terms_matches_insert() {
        let mut inst = Instance::new();
        let (id1, new1) = inst.insert_terms(PredId(0), &[c(0), c(1)]);
        let (id2, new2) = inst.insert(atom(0, vec![c(0), c(1)]));
        assert_eq!(id1, id2);
        assert!(new1 && !new2);
        assert_eq!(inst.id_of_parts(PredId(0), &[c(0), c(1)]), Some(id1));
        assert_eq!(inst.id_of_parts(PredId(0), &[c(1), c(0)]), None);
    }

    #[test]
    fn mixed_arity_same_pred_is_distinguished() {
        // The store doesn't enforce a schema: a predicate may appear at
        // several arities (datagen never does this, but dedup must not
        // conflate a tuple with its zero-extended sibling).
        let mut inst = Instance::new();
        let (a, _) = inst.insert(atom(0, vec![c(0)]));
        let (b, _) = inst.insert(atom(0, vec![c(0), c(0)]));
        assert_ne!(a, b);
        assert_eq!(inst.with_pred(PredId(0)).len(), 2);
    }

    #[test]
    fn retract_tombstones_and_repairs_postings() {
        let mut inst = Instance::new();
        let (a, _) = inst.insert(atom(0, vec![c(0), c(1)]));
        let (b, _) = inst.insert(atom(0, vec![c(0), c(2)]));
        let (x, _) = inst.insert(atom(1, vec![n(0)]));
        assert!(inst.retract(a));
        assert!(!inst.retract(a), "double retraction is a no-op");
        assert_eq!(inst.len(), 2);
        assert_eq!(inst.slab_len(), 3);
        assert!(!inst.is_live(a));
        assert!(inst.is_live(b) && inst.is_live(x));
        // Content lookup no longer sees the tombstone.
        assert!(!inst.contains(&atom(0, vec![c(0), c(1)])));
        assert!(inst.contains(&atom(0, vec![c(0), c(2)])));
        // Postings are repaired.
        assert_eq!(inst.with_pred(PredId(0)), &[b]);
        assert_eq!(inst.with_pred_pos_term(PredId(0), 0, c(0)), &[b]);
        assert!(inst.with_pred_pos_term(PredId(0), 1, c(1)).is_empty());
        // The slab still resolves the dead id's content.
        assert_eq!(inst.atom(a).to_atom(), atom(0, vec![c(0), c(1)]));
        assert!(inst.retract(x));
        assert!(!inst.contains(&atom(1, vec![n(0)])));
    }

    #[test]
    fn reinsert_after_retract_mints_fresh_id() {
        let mut inst = Instance::new();
        let (a, _) = inst.insert(atom(0, vec![c(0)]));
        inst.retract(a);
        let (a2, fresh) = inst.insert(atom(0, vec![c(0)]));
        assert!(fresh, "retracted content re-enters as a new atom");
        assert_ne!(a, a2);
        assert_eq!(inst.id_of(&atom(0, vec![c(0)])), Some(a2));
        assert_eq!(inst.len(), 1);
        assert_eq!(inst.slab_len(), 2);
        assert_eq!(inst.with_pred(PredId(0)), &[a2]);
    }

    #[test]
    fn dedup_survives_interleaved_retraction_and_growth() {
        // Backward-shift deletion must keep probe chains intact across
        // bulk delete/re-insert cycles that straddle table growth.
        let mut inst = Instance::new();
        let mut ids = Vec::new();
        for i in 0..500 {
            let (id, fresh) = inst.insert(atom(i % 5, vec![c(i), c(i / 2)]));
            assert!(fresh);
            ids.push((id, i));
        }
        for &(id, i) in ids.iter().step_by(3) {
            assert!(inst.retract(id));
            assert!(inst.id_of(&atom(i % 5, vec![c(i), c(i / 2)])).is_none());
        }
        for &(id, i) in &ids {
            let present = inst.id_of(&atom(i % 5, vec![c(i), c(i / 2)]));
            if inst.is_live(id) {
                assert_eq!(present, Some(id), "live atom {i} must stay findable");
            } else {
                assert_eq!(present, None, "dead atom {i} must not be findable");
            }
        }
        // Re-insert everything; dead content returns under fresh ids.
        for &(id, i) in &ids {
            let (new_id, fresh) = inst.insert(atom(i % 5, vec![c(i), c(i / 2)]));
            assert_eq!(fresh, id != new_id);
        }
        assert_eq!(inst.len(), 500);
    }

    #[test]
    fn dedup_survives_growth() {
        let mut inst = Instance::new();
        for i in 0..1000 {
            let (_, fresh) = inst.insert(atom(i % 7, vec![c(i), c(i / 3)]));
            assert!(fresh);
        }
        for i in 0..1000 {
            let (_, fresh) = inst.insert(atom(i % 7, vec![c(i), c(i / 3)]));
            assert!(!fresh, "atom {i} should already be present");
        }
        assert_eq!(inst.len(), 1000);
    }
}
