//! Error types for the core data model.

use std::fmt;

/// Errors raised while building or validating the core data model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreError {
    /// A predicate was used with an arity different from its declaration.
    ArityMismatch {
        /// Predicate name.
        predicate: String,
        /// Arity it was declared with.
        declared: usize,
        /// Arity it was used with.
        used: usize,
    },
    /// A rule head uses a universal variable that does not occur in the body
    /// (violates TGD safety).
    UnsafeRule {
        /// Rule index or description for diagnostics.
        rule: String,
        /// Offending variable name.
        variable: String,
    },
    /// A rule has an empty body or an empty head.
    EmptyRule {
        /// Rule description for diagnostics.
        rule: String,
        /// Which side is empty: "body" or "head".
        side: &'static str,
    },
    /// A ground fact contains a variable.
    NonGroundFact {
        /// Fact description for diagnostics.
        fact: String,
    },
    /// A parse error with location information.
    Parse(ParseError),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::ArityMismatch { predicate, declared, used } => write!(
                f,
                "predicate `{predicate}` declared with arity {declared} but used with arity {used}"
            ),
            CoreError::UnsafeRule { rule, variable } => write!(
                f,
                "unsafe rule {rule}: universal variable `{variable}` occurs in the head but not in the body"
            ),
            CoreError::EmptyRule { rule, side } => {
                write!(f, "rule {rule} has an empty {side}")
            }
            CoreError::NonGroundFact { fact } => {
                write!(f, "fact {fact} is not ground (contains a variable)")
            }
            CoreError::Parse(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CoreError {}

impl From<ParseError> for CoreError {
    fn from(e: ParseError) -> Self {
        CoreError::Parse(e)
    }
}

/// A parse error with a 1-based source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line of the offending token.
    pub line: usize,
    /// 1-based column of the offending token.
    pub col: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at {}:{}: {}", self.line, self.col, self.message)
    }
}

impl std::error::Error for ParseError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = CoreError::ArityMismatch { predicate: "p".into(), declared: 2, used: 3 };
        let s = e.to_string();
        assert!(s.contains("`p`") && s.contains('2') && s.contains('3'));

        let p = ParseError { line: 3, col: 14, message: "expected `)`".into() };
        assert_eq!(p.to_string(), "parse error at 3:14: expected `)`");
    }

    #[test]
    fn parse_error_converts_into_core_error() {
        let p = ParseError { line: 1, col: 1, message: "boom".into() };
        let c: CoreError = p.clone().into();
        assert_eq!(c, CoreError::Parse(p));
    }
}
