//! Derivation tracking: which trigger application produced which atom.
//!
//! The guarded termination procedure needs, for every chase-produced atom:
//! its creating application, the body-image atoms (in particular the image
//! of the rule's *guard*), the frontier assignment and the nulls minted by
//! the application. Retraction repair walks the same DAG downwards to find
//! what a deleted atom supported.

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
    /// The trigger's identity key under the run's chase variant (the full
    /// universal assignment for the oblivious chase, the frontier for the
    /// others). Retraction repair uses it to release `seen` entries whose
    /// supporting match died, and to give nulls Skolem-canonical names.
    pub key: Vec<Term>,
    /// Nulls minted by this application, in ascending existential-variable
    /// order (empty for Datalog rules).
    pub born_nulls: Vec<NullId>,
    /// Atoms this application added to the instance (new atoms only; head
    /// images that already existed are not listed).
    pub produced: Vec<AtomId>,
}

/// The derivation DAG of a chase run.
#[derive(Debug, Default, Clone)]
pub struct DerivationDag {
    apps: Vec<Application>,
    /// For each atom: the application that first created it (absent for
    /// atoms of the initial instance).
    creator: FxHashMap<AtomId, usize>,
    /// For each null: the index of the application that minted it.
    null_minter: FxHashMap<NullId, usize>,
    /// For each atom: indices of applications using it as a parent. This
    /// is the downward index retraction cones are computed from.
    consumers: FxHashMap<AtomId, Vec<usize>>,
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
            self.null_minter.insert(n, idx);
        }
        for &p in &app.parents {
            let slot = self.consumers.entry(p).or_default();
            // A body may bind the same atom several times; index it once.
            if slot.last() != Some(&idx) {
                slot.push(idx);
            }
        }
        self.apps.push(app);
        idx
    }

    /// Rebuilds a DAG from surviving applications (ascending `seq`),
    /// recomputing every index. Used by retraction repair, which rewrites
    /// atom ids and drops dead applications wholesale.
    pub fn from_applications(apps: Vec<Application>) -> Self {
        let mut dag = DerivationDag::new();
        for mut app in apps {
            let produced = std::mem::take(&mut app.produced);
            let idx = dag.push_application(app);
            for atom in produced {
                dag.record_atom(atom, idx);
            }
        }
        dag
    }

    /// Records that `atom` was first created by application `app_idx`.
    pub fn record_atom(&mut self, atom: AtomId, app_idx: usize) {
        debug_assert!(!self.creator.contains_key(&atom));
        self.creator.insert(atom, app_idx);
        self.apps[app_idx].produced.push(atom);
    }

    /// The application that created `atom`, if it is not an initial atom.
    pub fn creator_of(&self, atom: AtomId) -> Option<&Application> {
        self.creator.get(&atom).map(|&i| &self.apps[i])
    }

    /// All applications, in sequence order.
    pub fn applications(&self) -> &[Application] {
        &self.apps
    }

    /// The application at the given index.
    pub fn app(&self, idx: usize) -> &Application {
        &self.apps[idx]
    }

    /// Indices of applications that used `atom` as a parent.
    pub fn consumers_of(&self, atom: AtomId) -> &[usize] {
        self.consumers.get(&atom).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The index of the application that minted `null`, if tracked.
    pub fn minter_of(&self, null: NullId) -> Option<usize> {
        self.null_minter.get(&null).copied()
    }

    /// Computes the derivation cone of retracting `root`: every
    /// application transitively consuming it (directly or through atoms
    /// the cone created), and every atom first created inside the cone.
    ///
    /// Returns `(dead_app_indices, dead_atoms)`; app indices come back
    /// ascending (push order equals `seq` order), atoms in discovery
    /// order. `root` itself is *not* included in `dead_atoms`.
    pub fn cone_of(&self, root: AtomId) -> (Vec<usize>, Vec<AtomId>) {
        let mut dead_apps: Vec<usize> = Vec::new();
        let mut dead_app_set = FxHashSet::default();
        let mut dead_atoms: Vec<AtomId> = Vec::new();
        let mut dead_atom_set = FxHashSet::default();
        let mut frontier = vec![root];
        while let Some(atom) = frontier.pop() {
            for &app_idx in self.consumers_of(atom) {
                if !dead_app_set.insert(app_idx) {
                    continue;
                }
                dead_apps.push(app_idx);
                for &prod in &self.apps[app_idx].produced {
                    if dead_atom_set.insert(prod) {
                        dead_atoms.push(prod);
                        frontier.push(prod);
                    }
                }
            }
        }
        dead_apps.sort_unstable();
        (dead_apps, dead_atoms)
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

        let (dead_apps, dead_atoms) = dag.cone_of(AtomId(0));
        assert_eq!(dead_apps, vec![a0, a1]);
        let mut atoms = dead_atoms;
        atoms.sort_unstable();
        assert_eq!(atoms, vec![AtomId(2), AtomId(3)]);
        // Retracting atom 1 only kills the independent branch.
        let (dead_apps, dead_atoms) = dag.cone_of(AtomId(1));
        assert_eq!(dead_apps, vec![a2]);
        assert_eq!(dead_atoms, vec![AtomId(4)]);
        // Untouched atoms have no cone.
        assert!(dag.cone_of(AtomId(4)).0.is_empty());
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
        let (dead_apps, dead_atoms) = dag.cone_of(AtomId(0));
        assert_eq!(dead_apps, vec![a0, a1, a2]);
        assert_eq!(dead_atoms.len(), 3, "each cone atom appears once");
    }

    #[test]
    fn from_applications_rebuilds_every_index() {
        let mut orig = DerivationDag::new();
        let mut a = app(0, 0, vec![AtomId(0)], Some(AtomId(0)));
        a.born_nulls = vec![NullId(0)];
        let i0 = orig.push_application(a);
        orig.record_atom(AtomId(1), i0);
        let i1 = orig.push_application(app(1, 1, vec![AtomId(1)], None));
        orig.record_atom(AtomId(2), i1);

        let rebuilt = DerivationDag::from_applications(orig.applications().to_vec());
        assert_eq!(rebuilt.applications().len(), 2);
        assert_eq!(rebuilt.minter_of(NullId(0)), Some(0));
        assert_eq!(rebuilt.consumers_of(AtomId(1)), &[1]);
        assert_eq!(rebuilt.creator_of(AtomId(1)).unwrap().rule, 0);
        assert_eq!(rebuilt.app(1).produced, vec![AtomId(2)]);
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
