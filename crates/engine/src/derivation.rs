//! Derivation tracking: which trigger application produced which atom.
//!
//! The guarded termination procedure needs, for every chase-produced atom:
//! its creating application, the body-image atoms (in particular the image
//! of the rule's *guard*), the frontier assignment and the nulls minted by
//! the application. Retraction repair walks the same DAG downwards to find
//! what a deleted atom supported, drops the applications it kills in place
//! and restores deleted atoms from the other applications recorded as
//! their producers.

use chasekit_core::{AtomId, FxHashMap, FxHashSet, NullId, Term};

/// One trigger application (a single chase step).
#[derive(Debug, Clone)]
pub struct Application {
    /// Index of the applied rule in the program.
    pub rule: usize,
    /// Sequence number of this application (0-based, monotone).
    pub seq: u64,
    /// Instance ids of the body image, in body-atom order.
    pub parents: Vec<AtomId>,
    /// The parent anchoring ancestor chains: the body image of the rule's
    /// guard when the rule is guarded, otherwise the first body image.
    pub primary_parent: Option<AtomId>,
    /// The frontier assignment, in ascending frontier-variable order.
    pub frontier: Vec<Term>,
    /// The trigger's identity key when it is more than the frontier
    /// assignment (an oblivious rule with a body-only variable); empty
    /// otherwise, so the common case stores the assignment once. Read it
    /// through [`Application::key`].
    pub(crate) key: Vec<Term>,
    /// Nulls minted by this application, in ascending existential-variable
    /// order (empty for Datalog rules).
    pub born_nulls: Vec<NullId>,
    /// Atoms this application created: head images that were new when it
    /// fired, and head images a retraction restored for it (see
    /// [`DerivationDag::record_producer`]). Images that already existed are
    /// not listed, nor are images an edit later added as base facts.
    pub produced: Vec<AtomId>,
}

impl Application {
    /// The trigger's identity key under the run's chase variant (the full
    /// universal assignment for the oblivious chase, the frontier for the
    /// others). Retraction repair uses it to release `seen` entries whose
    /// supporting match died, and to give nulls Skolem-canonical names.
    pub fn key(&self) -> &[Term] {
        if self.key.is_empty() {
            &self.frontier
        } else {
            &self.key
        }
    }

    /// [`key`](Self::key), by value.
    pub(crate) fn into_key(self) -> Vec<Term> {
        if self.key.is_empty() {
            self.frontier
        } else {
            self.key
        }
    }
}

/// The derivation DAG of a chase run.
///
/// Application indices are stable: retraction repair drops an application
/// in place ([`DerivationDag::drop_application`]), the way
/// [`chasekit_core::Instance::retract`] tombstones an atom, so every index
/// recorded elsewhere keeps naming the same application.
#[derive(Debug, Default, Clone)]
pub struct DerivationDag {
    /// Applications by index; `None` once dropped.
    apps: Vec<Option<Application>>,
    /// By atom index: the application that first created it (none for
    /// atoms of the initial instance).
    creator: AppByIndex,
    /// By null index: the application that minted it.
    null_minter: AppByIndex,
    /// For each atom: indices of applications using it as a parent,
    /// ascending. This is the downward index retraction cones are computed
    /// from.
    consumers: FxHashMap<AtomId, Vec<usize>>,
    /// For each atom: the other applications whose head produced it while
    /// it already existed, as `(application, first head position)`. These
    /// are the alternative supports retraction restores an atom from.
    /// Entries may name dropped applications.
    producers: AtomLists<(u32, u32)>,
}

/// A list of values per atom id, kept as singly linked lists in one arena
/// so that appending allocates nothing per atom. Lists read newest first.
/// Taking a list detaches it; its links stay in the arena unused.
#[derive(Debug, Clone)]
pub(crate) struct AtomLists<T> {
    /// By atom index: the newest link, or `NIL`.
    heads: Vec<u32>,
    /// `(value, next link)`.
    links: Vec<(T, u32)>,
}

const NIL: u32 = u32::MAX;

/// An application index or head position as a list or map entry.
fn narrow(n: usize) -> u32 {
    u32::try_from(n)
        .ok()
        .filter(|&n| n != NIL)
        .expect("fewer than 2^32 - 1 applications and head atoms")
}

/// A producer list entry: `(application index, head position)`.
fn producer_entry(app: usize, pos: usize) -> (u32, u32) {
    (narrow(app), narrow(pos))
}

/// A dense map from an atom or null index to an application index.
#[derive(Debug, Clone, Default)]
struct AppByIndex(Vec<u32>);

impl AppByIndex {
    fn get(&self, i: usize) -> Option<usize> {
        self.0.get(i).copied().filter(|&app| app != NIL).map(|app| app as usize)
    }

    fn set(&mut self, i: usize, app: usize) {
        if i >= self.0.len() {
            self.0.resize(i + 1, NIL);
        }
        self.0[i] = narrow(app);
    }

    fn clear(&mut self, i: usize) {
        if let Some(slot) = self.0.get_mut(i) {
            *slot = NIL;
        }
    }
}

impl<T> Default for AtomLists<T> {
    fn default() -> Self {
        AtomLists { heads: Vec::new(), links: Vec::new() }
    }
}

impl<T: Copy> AtomLists<T> {
    /// Appends `value` to `atom`'s list.
    pub(crate) fn push(&mut self, atom: AtomId, value: T) {
        let i = atom.index();
        if i >= self.heads.len() {
            self.heads.resize(i + 1, NIL);
        }
        let link = u32::try_from(self.links.len())
            .ok()
            .filter(|&link| link != NIL)
            .expect("fewer than 2^32 - 1 list entries");
        self.links.push((value, self.heads[i]));
        self.heads[i] = link;
    }

    /// The newest value of `atom`'s list.
    pub(crate) fn newest(&self, atom: AtomId) -> Option<T> {
        let head = self.heads.get(atom.index()).copied().unwrap_or(NIL);
        (head != NIL).then(|| self.links[head as usize].0)
    }

    /// Detaches `atom`'s list and returns its values, newest first.
    pub(crate) fn take(&mut self, atom: AtomId) -> Vec<T> {
        let mut out = Vec::new();
        let Some(head) = self.heads.get_mut(atom.index()) else { return out };
        let mut link = std::mem::replace(head, NIL);
        while link != NIL {
            let (value, next) = self.links[link as usize];
            out.push(value);
            link = next;
        }
        out
    }
}

/// The derivation cone of retracting one atom (see
/// [`DerivationDag::cone_of`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cone {
    /// Indices of the cone's applications, ascending.
    pub apps: Vec<usize>,
    /// Atoms first created inside the cone, in discovery order; the
    /// retracted root is not included.
    pub atoms: Vec<AtomId>,
    /// Consumer entries the walk examined.
    pub visited: usize,
}

impl DerivationDag {
    /// Creates an empty DAG.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records an application; returns its index. The caller appends
    /// produced atoms via [`DerivationDag::record_atom`].
    pub fn push_application(&mut self, app: Application) -> usize {
        let idx = self.apps.len();
        for &n in &app.born_nulls {
            self.null_minter.set(n.index(), idx);
        }
        for &p in &app.parents {
            let slot = self.consumers.entry(p).or_default();
            // A body may bind the same atom several times; index it once.
            if slot.last() != Some(&idx) {
                slot.push(idx);
            }
        }
        self.apps.push(Some(app));
        idx
    }

    /// Records that `atom` was first created by application `app_idx`.
    pub fn record_atom(&mut self, atom: AtomId, app_idx: usize) {
        debug_assert!(self.creator.get(atom.index()).is_none());
        self.creator.set(atom.index(), app_idx);
        self.live_mut(app_idx).produced.push(atom);
    }

    /// Records that head position `pos` of application `app_idx` produced
    /// `atom`, which already existed. Only an application's first position
    /// producing an atom is kept.
    pub fn record_producer(&mut self, atom: AtomId, app_idx: usize, pos: usize) {
        let entry = producer_entry(app_idx, pos);
        if self.producers.newest(atom).map(|(app, _)| app) != Some(entry.0) {
            self.producers.push(atom, entry);
        }
    }

    /// Drops application `idx` in place: removes its creator, null-minter
    /// and consumer entries and returns it, leaving a tombstone so every
    /// other index stays valid. Returns `None` if it was already dropped.
    pub fn drop_application(&mut self, idx: usize) -> Option<Application> {
        let app = self.apps.get_mut(idx)?.take()?;
        for &p in &app.parents {
            if let Some(list) = self.consumers.get_mut(&p) {
                if let Ok(at) = list.binary_search(&idx) {
                    list.remove(at);
                }
                if list.is_empty() {
                    self.consumers.remove(&p);
                }
            }
        }
        for atom in &app.produced {
            self.creator.clear(atom.index());
        }
        for n in &app.born_nulls {
            self.null_minter.clear(n.index());
        }
        Some(app)
    }

    /// Removes and returns the recorded producers of `atom` (see
    /// [`record_producer`](Self::record_producer)) in ascending order,
    /// dropped ones included.
    pub(crate) fn take_producers(&mut self, atom: AtomId) -> Vec<(usize, usize)> {
        let mut out: Vec<(usize, usize)> = self
            .producers
            .take(atom)
            .into_iter()
            .map(|(app, pos)| (app as usize, pos as usize))
            .collect();
        // Mostly recorded in ascending order, but a promoted atom's
        // creator comes last.
        out.sort_unstable();
        out
    }

    /// Records `atom` as restored from `producers` (live, ascending): the
    /// first becomes its creator, the others stay its producers.
    pub(crate) fn record_restored(&mut self, atom: AtomId, producers: &[(usize, usize)]) {
        let (&(creator, _), others) =
            producers.split_first().expect("a restored atom has a producer");
        self.record_atom(atom, creator);
        for &(app, pos) in others {
            self.producers.push(atom, producer_entry(app, pos));
        }
    }

    /// Makes the derived `atom` an initial atom, as an edit that adds it
    /// as a base fact does. Its creator no longer lists it as created and
    /// stays a recorded producer at head position `pos`, so retracting the
    /// atom restores it while that application lives, and retracting the
    /// creator's support leaves it alone.
    pub(crate) fn promote_to_base(&mut self, atom: AtomId, pos: usize) {
        let Some(creator) = self.creator.get(atom.index()) else { return };
        self.creator.clear(atom.index());
        self.live_mut(creator).produced.retain(|&a| a != atom);
        self.producers.push(atom, producer_entry(creator, pos));
    }

    /// Whether application `idx` exists and has not been dropped.
    pub fn is_live(&self, idx: usize) -> bool {
        self.apps.get(idx).is_some_and(Option::is_some)
    }

    /// The application that created `atom`, if it is not an initial atom.
    pub fn creator_of(&self, atom: AtomId) -> Option<&Application> {
        self.creator.get(atom.index()).map(|i| self.app(i))
    }

    /// The live applications, in sequence order. Dropped ones are skipped.
    pub fn applications(&self) -> impl Iterator<Item = &Application> {
        self.apps.iter().flatten()
    }

    /// The application at the given index.
    ///
    /// # Panics
    ///
    /// Panics if the application was dropped.
    pub fn app(&self, idx: usize) -> &Application {
        self.apps[idx].as_ref().expect("application was dropped by a retraction")
    }

    fn live_mut(&mut self, idx: usize) -> &mut Application {
        self.apps[idx].as_mut().expect("application was dropped by a retraction")
    }

    /// Indices of applications that used `atom` as a parent.
    pub fn consumers_of(&self, atom: AtomId) -> &[usize] {
        self.consumers.get(&atom).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The index of the application that minted `null`, if tracked.
    pub fn minter_of(&self, null: NullId) -> Option<usize> {
        self.null_minter.get(null.index())
    }

    /// Computes the derivation cone of retracting `root`: every
    /// application transitively consuming it (directly or through atoms
    /// the cone created), and every atom first created inside the cone.
    /// The walk touches only the cone and the consumer entries of its
    /// atoms, never the rest of the DAG.
    pub fn cone_of(&self, root: AtomId) -> Cone {
        let mut cone = Cone { apps: Vec::new(), atoms: Vec::new(), visited: 0 };
        let mut dead_app_set = FxHashSet::default();
        let mut dead_atom_set = FxHashSet::default();
        let mut frontier = vec![root];
        while let Some(atom) = frontier.pop() {
            for &app_idx in self.consumers_of(atom) {
                cone.visited += 1;
                if !dead_app_set.insert(app_idx) {
                    continue;
                }
                cone.apps.push(app_idx);
                for &prod in &self.app(app_idx).produced {
                    if dead_atom_set.insert(prod) {
                        cone.atoms.push(prod);
                        frontier.push(prod);
                    }
                }
            }
        }
        cone.apps.sort_unstable();
        cone
    }

    /// Walks the primary-ancestor chain of `atom`: the primary parent of
    /// its creating application, then that atom's primary parent, and so on
    /// up to an initial atom. For guarded rules this is the guard chain.
    /// The returned chain starts with `atom`'s primary parent (i.e.
    /// excludes `atom` itself).
    pub fn ancestor_chain(&self, mut atom: AtomId) -> Vec<AtomId> {
        let mut chain = Vec::new();
        while let Some(app) = self.creator_of(atom) {
            match app.primary_parent {
                Some(g) => {
                    chain.push(g);
                    atom = g;
                }
                None => break,
            }
        }
        chain
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn app(rule: usize, seq: u64, parents: Vec<AtomId>, guard: Option<AtomId>) -> Application {
        Application {
            rule,
            seq,
            parents,
            primary_parent: guard,
            frontier: vec![],
            key: vec![],
            born_nulls: vec![],
            produced: vec![],
        }
    }

    #[test]
    fn ancestor_chain_walks_to_initial() {
        let mut dag = DerivationDag::new();
        let a0 = dag.push_application(app(0, 0, vec![AtomId(0)], Some(AtomId(0))));
        dag.record_atom(AtomId(1), a0);
        let a1 = dag.push_application(app(1, 1, vec![AtomId(1)], Some(AtomId(1))));
        dag.record_atom(AtomId(2), a1);
        assert_eq!(dag.ancestor_chain(AtomId(2)), vec![AtomId(1), AtomId(0)]);
        assert!(dag.ancestor_chain(AtomId(0)).is_empty());
    }

    #[test]
    fn null_minters_are_tracked() {
        let mut dag = DerivationDag::new();
        let mut a = app(0, 7, vec![AtomId(0)], None);
        a.born_nulls = vec![NullId(3)];
        let i = dag.push_application(a);
        assert_eq!(dag.minter_of(NullId(3)), Some(i));
        assert_eq!(dag.app(i).seq, 7);
        assert_eq!(dag.minter_of(NullId(4)), None);
    }

    #[test]
    fn cone_follows_consumers_transitively() {
        let mut dag = DerivationDag::new();
        // Base atoms 0 and 1. App 0 consumes 0, creates 2. App 1 consumes
        // 2, creates 3. App 2 consumes only 1, creates 4.
        let a0 = dag.push_application(app(0, 0, vec![AtomId(0)], None));
        dag.record_atom(AtomId(2), a0);
        let a1 = dag.push_application(app(0, 1, vec![AtomId(2)], None));
        dag.record_atom(AtomId(3), a1);
        let a2 = dag.push_application(app(1, 2, vec![AtomId(1)], None));
        dag.record_atom(AtomId(4), a2);

        let cone = dag.cone_of(AtomId(0));
        assert_eq!(cone.apps, vec![a0, a1]);
        let mut atoms = cone.atoms;
        atoms.sort_unstable();
        assert_eq!(atoms, vec![AtomId(2), AtomId(3)]);
        assert_eq!(cone.visited, 2);
        // Retracting atom 1 only kills the independent branch.
        let cone = dag.cone_of(AtomId(1));
        assert_eq!(cone.apps, vec![a2]);
        assert_eq!(cone.atoms, vec![AtomId(4)]);
        // Untouched atoms have no cone.
        assert!(dag.cone_of(AtomId(4)).apps.is_empty());
        assert_eq!(dag.consumers_of(AtomId(2)), &[a1]);
    }

    #[test]
    fn cone_handles_diamonds_once() {
        let mut dag = DerivationDag::new();
        // Diamond: base 0 feeds apps 0 and 1; both products feed app 2.
        let a0 = dag.push_application(app(0, 0, vec![AtomId(0)], None));
        dag.record_atom(AtomId(1), a0);
        let a1 = dag.push_application(app(1, 1, vec![AtomId(0)], None));
        dag.record_atom(AtomId(2), a1);
        let a2 = dag.push_application(app(2, 2, vec![AtomId(1), AtomId(2)], None));
        dag.record_atom(AtomId(3), a2);
        let cone = dag.cone_of(AtomId(0));
        assert_eq!(cone.apps, vec![a0, a1, a2]);
        assert_eq!(cone.atoms.len(), 3, "each cone atom appears once");
        assert_eq!(cone.visited, 4, "app 2 is reached through both parents");
    }

    #[test]
    fn drop_application_removes_only_its_own_entries() {
        let mut dag = DerivationDag::new();
        // App 0 consumes base 0, mints null 0, creates 1. App 1 consumes 0
        // and 1, creates 2. App 2 consumes 0, creates 3.
        let mut a = app(0, 0, vec![AtomId(0)], Some(AtomId(0)));
        a.born_nulls = vec![NullId(0)];
        let i0 = dag.push_application(a);
        dag.record_atom(AtomId(1), i0);
        let i1 = dag.push_application(app(1, 1, vec![AtomId(0), AtomId(1)], None));
        dag.record_atom(AtomId(2), i1);
        let i2 = dag.push_application(app(2, 2, vec![AtomId(0)], None));
        dag.record_atom(AtomId(3), i2);

        let dropped = dag.drop_application(i1).unwrap();
        assert_eq!((dropped.rule, dropped.produced), (1, vec![AtomId(2)]));
        assert!(dag.drop_application(i1).is_none(), "a tombstone drops once");
        assert!(!dag.is_live(i1) && dag.is_live(i0) && dag.is_live(i2));
        // Indices stay stable: the survivors answer under their old index.
        assert_eq!(dag.consumers_of(AtomId(0)), &[i0, i2]);
        assert!(dag.consumers_of(AtomId(1)).is_empty());
        assert!(dag.creator_of(AtomId(2)).is_none());
        assert_eq!(dag.creator_of(AtomId(3)).unwrap().rule, 2);
        assert_eq!(dag.app(i2).seq, 2);
        assert_eq!(dag.applications().map(|a| a.seq).collect::<Vec<_>>(), vec![0, 2]);

        dag.drop_application(i0).unwrap();
        assert_eq!(dag.minter_of(NullId(0)), None);
        assert!(dag.creator_of(AtomId(1)).is_none());
        assert_eq!(dag.consumers_of(AtomId(0)), &[i2]);
        // A cone walk never reaches a dropped application.
        assert_eq!(dag.cone_of(AtomId(0)).apps, vec![i2]);
    }

    #[test]
    fn producers_restore_an_atom_to_its_first_live_producer() {
        let mut dag = DerivationDag::new();
        // App 0 creates atom 1; apps 1 and 2 produce it again, app 2 at
        // head positions 1 and 3 (only the first is kept).
        let i0 = dag.push_application(app(0, 0, vec![AtomId(0)], None));
        dag.record_atom(AtomId(1), i0);
        let i1 = dag.push_application(app(1, 1, vec![AtomId(0)], None));
        dag.record_producer(AtomId(1), i1, 0);
        let i2 = dag.push_application(app(2, 2, vec![AtomId(5)], None));
        dag.record_producer(AtomId(1), i2, 1);
        dag.record_producer(AtomId(1), i2, 3);

        dag.drop_application(i0).unwrap();
        dag.drop_application(i1).unwrap();
        let mut producers = dag.take_producers(AtomId(1));
        assert_eq!(producers, vec![(i1, 0), (i2, 1)]);
        assert!(dag.take_producers(AtomId(1)).is_empty(), "taken once");
        producers.retain(|&(a, _)| dag.is_live(a));
        // Atom 1 comes back as atom 7, created by app 2.
        dag.record_restored(AtomId(7), &producers);
        assert_eq!(dag.creator_of(AtomId(7)).unwrap().seq, 2);
        assert_eq!(dag.app(i2).produced, vec![AtomId(7)]);
        assert_eq!(dag.cone_of(AtomId(5)).atoms, vec![AtomId(7)]);
    }

    #[test]
    fn creator_and_produced_are_linked() {
        let mut dag = DerivationDag::new();
        let i = dag.push_application(app(2, 0, vec![AtomId(0)], None));
        dag.record_atom(AtomId(5), i);
        dag.record_atom(AtomId(6), i);
        let a = dag.creator_of(AtomId(5)).unwrap();
        assert_eq!(a.rule, 2);
        assert_eq!(a.produced, vec![AtomId(5), AtomId(6)]);
        assert!(dag.creator_of(AtomId(0)).is_none());
    }
}
