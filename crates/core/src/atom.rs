//! Atoms: a predicate applied to a tuple of terms.

use crate::ids::{NullId, PredId, VarId};
use crate::term::Term;

/// An atom `p(t1, ..., tk)`.
///
/// Atoms are used both inside rules (where arguments may be variables) and
/// inside instances (where arguments are ground: constants and nulls).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Atom {
    /// The predicate.
    pub pred: PredId,
    /// The argument tuple; its length must equal the predicate's arity.
    pub args: Vec<Term>,
}

impl Atom {
    /// Creates a new atom.
    pub fn new(pred: PredId, args: Vec<Term>) -> Self {
        Atom { pred, args }
    }

    /// The number of argument positions.
    #[inline]
    pub fn arity(&self) -> usize {
        self.args.len()
    }

    /// Whether every argument is ground (constant or null).
    pub fn is_ground(&self) -> bool {
        self.args.iter().all(|t| t.is_ground())
    }

    /// Iterates over the distinct variables of the atom, in first-occurrence
    /// order.
    pub fn vars(&self) -> Vec<VarId> {
        let mut out = Vec::new();
        for t in &self.args {
            if let Term::Var(v) = *t {
                if !out.contains(&v) {
                    out.push(v);
                }
            }
        }
        out
    }

    /// Iterates over the distinct nulls of the atom, in first-occurrence
    /// order.
    pub fn nulls(&self) -> Vec<NullId> {
        let mut out = Vec::new();
        for t in &self.args {
            if let Term::Null(n) = *t {
                if !out.contains(&n) {
                    out.push(n);
                }
            }
        }
        out
    }

    /// Whether any variable occurs twice in the argument tuple.
    pub fn has_repeated_var(&self) -> bool {
        for (i, t) in self.args.iter().enumerate() {
            if let Term::Var(v) = *t {
                if self.args[i + 1..].iter().any(|u| u.as_var() == Some(v)) {
                    return true;
                }
            }
        }
        false
    }

    /// Applies `f` to every argument, producing a new atom.
    pub fn map_args(&self, mut f: impl FnMut(Term) -> Term) -> Atom {
        Atom { pred: self.pred, args: self.args.iter().map(|&t| f(t)).collect() }
    }

    /// Returns `true` if the atom mentions the given term.
    pub fn mentions(&self, t: Term) -> bool {
        self.args.contains(&t)
    }

    /// A borrowed view of the atom.
    #[inline]
    pub fn as_ref(&self) -> AtomRef<'_> {
        AtomRef { pred: self.pred, args: &self.args }
    }
}

/// A borrowed atom: a predicate plus an argument slice.
///
/// [`crate::Instance`] stores atoms interned into a shared term arena, so
/// resolving an id yields this zero-copy view instead of an owned
/// [`Atom`]. It is `Copy` (two words) and compares equal to owned atoms
/// with the same predicate and arguments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AtomRef<'a> {
    /// The predicate.
    pub pred: PredId,
    /// The argument tuple, borrowed from the owning arena.
    pub args: &'a [Term],
}

impl AtomRef<'_> {
    /// The number of argument positions.
    #[inline]
    pub fn arity(&self) -> usize {
        self.args.len()
    }

    /// Whether every argument is ground (constant or null).
    pub fn is_ground(&self) -> bool {
        self.args.iter().all(|t| t.is_ground())
    }

    /// Iterates over the distinct nulls of the atom, in first-occurrence
    /// order.
    pub fn nulls(&self) -> Vec<NullId> {
        let mut out = Vec::new();
        for t in self.args {
            if let Term::Null(n) = *t {
                if !out.contains(&n) {
                    out.push(n);
                }
            }
        }
        out
    }

    /// Returns `true` if the atom mentions the given term.
    pub fn mentions(&self, t: Term) -> bool {
        self.args.contains(&t)
    }

    /// Applies `f` to every argument, producing an owned atom.
    pub fn map_args(&self, mut f: impl FnMut(Term) -> Term) -> Atom {
        Atom { pred: self.pred, args: self.args.iter().map(|&t| f(t)).collect() }
    }

    /// Copies the view into an owned [`Atom`].
    pub fn to_atom(&self) -> Atom {
        Atom { pred: self.pred, args: self.args.to_vec() }
    }
}

impl PartialEq<Atom> for AtomRef<'_> {
    fn eq(&self, other: &Atom) -> bool {
        self.pred == other.pred && self.args == other.args.as_slice()
    }
}

impl PartialEq<AtomRef<'_>> for Atom {
    fn eq(&self, other: &AtomRef<'_>) -> bool {
        other == self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ConstId;

    fn v(i: u32) -> Term {
        Term::Var(VarId(i))
    }
    fn c(i: u32) -> Term {
        Term::Const(ConstId(i))
    }
    fn n(i: u32) -> Term {
        Term::Null(NullId(i))
    }

    #[test]
    fn groundness() {
        let a = Atom::new(PredId(0), vec![c(0), n(1)]);
        assert!(a.is_ground());
        let b = Atom::new(PredId(0), vec![c(0), v(0)]);
        assert!(!b.is_ground());
    }

    #[test]
    fn vars_in_first_occurrence_order_without_duplicates() {
        let a = Atom::new(PredId(0), vec![v(2), v(0), v(2), c(1)]);
        assert_eq!(a.vars(), vec![VarId(2), VarId(0)]);
    }

    #[test]
    fn nulls_in_first_occurrence_order_without_duplicates() {
        let a = Atom::new(PredId(0), vec![n(5), c(0), n(5), n(1)]);
        assert_eq!(a.nulls(), vec![NullId(5), NullId(1)]);
    }

    #[test]
    fn repeated_variable_detection() {
        assert!(Atom::new(PredId(0), vec![v(0), v(0)]).has_repeated_var());
        assert!(!Atom::new(PredId(0), vec![v(0), v(1)]).has_repeated_var());
        // Repeated constants are not repeated variables.
        assert!(!Atom::new(PredId(0), vec![c(0), c(0)]).has_repeated_var());
    }

    #[test]
    fn map_args_substitutes() {
        let a = Atom::new(PredId(0), vec![v(0), c(1)]);
        let b = a.map_args(|t| if t == v(0) { n(9) } else { t });
        assert_eq!(b.args, vec![n(9), c(1)]);
        assert_eq!(b.pred, a.pred);
    }

    #[test]
    fn mentions_checks_membership() {
        let a = Atom::new(PredId(0), vec![n(1), c(2)]);
        assert!(a.mentions(n(1)));
        assert!(!a.mentions(n(2)));
    }
}
