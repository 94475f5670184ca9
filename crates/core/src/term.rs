//! Terms: constants, rule variables, and labeled nulls.

use crate::ids::{ConstId, NullId, VarId};

/// A term of the logic.
///
/// * `Const` — a named constant from the [`crate::Vocabulary`].
/// * `Var` — a variable; only meaningful inside a rule (ids are rule-scoped).
/// * `Null` — a labeled null invented by the chase; ids are instance-scoped
///   and **monotone in birth order** (a larger [`NullId`] was created later),
///   a property the termination procedures rely on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Term {
    /// A named constant.
    Const(ConstId),
    /// A rule-scoped variable.
    Var(VarId),
    /// A chase-invented labeled null.
    Null(NullId),
}

impl Term {
    /// Returns `true` for ground terms (constants and nulls — anything that
    /// can live in an instance).
    #[inline]
    pub fn is_ground(self) -> bool {
        !matches!(self, Term::Var(_))
    }

    /// Returns `true` if the term is a labeled null.
    #[inline]
    pub fn is_null(self) -> bool {
        matches!(self, Term::Null(_))
    }

    /// Returns the variable id, if this is a variable.
    #[inline]
    pub fn as_var(self) -> Option<VarId> {
        match self {
            Term::Var(v) => Some(v),
            _ => None,
        }
    }

    /// Returns the null id, if this is a null.
    #[inline]
    pub fn as_null(self) -> Option<NullId> {
        match self {
            Term::Null(n) => Some(n),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_predicates() {
        assert!(Term::Const(ConstId(0)).is_ground());
        assert!(Term::Null(NullId(0)).is_ground());
        assert!(!Term::Var(VarId(0)).is_ground());
        assert!(Term::Null(NullId(1)).is_null());
    }

    #[test]
    fn accessors_return_expected_ids() {
        assert_eq!(Term::Var(VarId(7)).as_var(), Some(VarId(7)));
        assert_eq!(Term::Const(ConstId(7)).as_var(), None);
        assert_eq!(Term::Null(NullId(3)).as_null(), Some(NullId(3)));
    }

    #[test]
    fn term_is_small() {
        // Atoms hold many terms; keep them word-sized.
        assert!(std::mem::size_of::<Term>() <= 8);
    }
}
