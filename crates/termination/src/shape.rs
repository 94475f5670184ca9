//! Atom shapes: canonical abstractions of ground atoms for the linear
//! analysis.
//!
//! A *shape* records, for each argument position of an atom, either the
//! concrete constant sitting there or the equivalence class of the null
//! sitting there (null classes are numbered by first occurrence, so shapes
//! are canonical: two atoms have the same shape iff they agree on constants
//! and on the equality pattern of their nulls).
//!
//! For **linear** TGDs the shape of an atom determines exactly which rules
//! can fire on it and the shapes of the atoms they produce, which is why the
//! reachable-shape graph of `crates/termination/src/linear.rs` decides chase
//! termination for linear rule sets.

use chasekit_core::{ConstId, FxHashMap, PredId};

/// One position's abstract content.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Label {
    /// A named constant.
    Const(ConstId),
    /// A null, identified by its class within the atom (first occurrence
    /// order: the first distinct null is class 0, the next class 1, ...).
    Null(u32),
}

impl Label {
    /// Whether the label is a null class.
    pub fn is_null(self) -> bool {
        matches!(self, Label::Null(_))
    }
}

/// A canonical atom pattern.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Shape {
    /// The predicate.
    pub pred: PredId,
    /// Canonical per-position labels.
    pub labels: Vec<Label>,
}

impl Shape {
    /// Builds the canonical shape from possibly non-canonical labels
    /// (renumbers null classes by first occurrence).
    pub fn canonicalize(pred: PredId, raw: &[Label]) -> Shape {
        let mut renumber: FxHashMap<u32, u32> = FxHashMap::default();
        let labels = raw
            .iter()
            .map(|&l| match l {
                Label::Const(c) => Label::Const(c),
                Label::Null(class) => {
                    let next = renumber.len() as u32;
                    Label::Null(*renumber.entry(class).or_insert(next))
                }
            })
            .collect();
        Shape { pred, labels }
    }

    /// Number of argument positions.
    pub fn arity(&self) -> usize {
        self.labels.len()
    }
}

/// Interner assigning dense ids to shapes.
#[derive(Debug, Default)]
pub struct ShapeInterner {
    shapes: Vec<Shape>,
    lookup: FxHashMap<Shape, u32>,
}

impl ShapeInterner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns a shape; returns `(id, is_new)`.
    pub fn intern(&mut self, shape: Shape) -> (u32, bool) {
        if let Some(&id) = self.lookup.get(&shape) {
            return (id, false);
        }
        let id = self.shapes.len() as u32;
        self.lookup.insert(shape.clone(), id);
        self.shapes.push(shape);
        (id, true)
    }

    /// Resolves an id.
    pub fn get(&self, id: u32) -> &Shape {
        &self.shapes[id as usize]
    }

    /// Number of interned shapes.
    pub fn len(&self) -> usize {
        self.shapes.len()
    }

    /// Whether no shape has been interned.
    pub fn is_empty(&self) -> bool {
        self.shapes.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonicalize_renumbers_by_first_occurrence() {
        let s = Shape::canonicalize(
            PredId(0),
            &[Label::Null(42), Label::Const(ConstId(3)), Label::Null(7), Label::Null(42)],
        );
        assert_eq!(
            s.labels,
            vec![Label::Null(0), Label::Const(ConstId(3)), Label::Null(1), Label::Null(0)]
        );
    }

    #[test]
    fn interner_dedups() {
        let mut i = ShapeInterner::new();
        let s1 = Shape::canonicalize(PredId(0), &[Label::Null(1), Label::Null(2)]);
        let s2 = Shape::canonicalize(PredId(0), &[Label::Null(8), Label::Null(9)]);
        let (id1, new1) = i.intern(s1);
        let (id2, new2) = i.intern(s2);
        assert_eq!(id1, id2);
        assert!(new1 && !new2);
        assert_eq!(i.len(), 1);
    }

    #[test]
    fn zero_arity_shape() {
        let s = Shape::canonicalize(PredId(3), &[]);
        assert_eq!(s.arity(), 0);
    }
}
