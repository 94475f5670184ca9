//! Chase variants and their trigger-identity semantics.

use chasekit_core::{Substitution, Term, Tgd};

/// The chase variant, which determines when two triggers for the same rule
/// are considered "the same" (and hence applied only once), and whether a
/// trigger is skipped when its head is already satisfied.
///
/// * **Oblivious** (o-chase): triggers are identified by the full
///   homomorphism on the body variables; no satisfaction check.
/// * **Semi-oblivious** (so-chase): homomorphisms agreeing on the rule's
///   *frontier* (universal variables occurring in the head) are
///   indistinguishable; no satisfaction check.
/// * **Restricted** (standard chase): a trigger applies only if no extension
///   of its frontier assignment already satisfies the head in the current
///   instance. Trigger identity is the frontier assignment (once applied or
///   satisfied, a frontier assignment stays satisfied forever, so
///   re-consideration is unnecessary).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChaseVariant {
    /// The oblivious chase.
    Oblivious,
    /// The semi-oblivious chase.
    SemiOblivious,
    /// The restricted (standard) chase under fair FIFO scheduling.
    Restricted,
}

impl ChaseVariant {
    /// Computes a trigger's identity key: the projection of the substitution
    /// onto the variables that distinguish triggers under this variant.
    pub fn trigger_key(self, rule: &Tgd, subst: &Substitution) -> Vec<Term> {
        match self {
            ChaseVariant::Oblivious => {
                // All universal variables, in ascending id order.
                rule.universals()
                    .iter()
                    .map(|&v| subst.get(v).expect("universal variable must be bound"))
                    .collect()
            }
            ChaseVariant::SemiOblivious | ChaseVariant::Restricted => rule
                .frontier()
                .iter()
                .map(|&v| subst.get(v).expect("frontier variable must be bound"))
                .collect(),
        }
    }

    /// Whether this variant checks head satisfaction before applying.
    #[inline]
    pub fn checks_satisfaction(self) -> bool {
        matches!(self, ChaseVariant::Restricted)
    }

    /// The long token (`oblivious`, `semi-oblivious`, `restricted`): what
    /// `Display` prints and what checkpoints and job files store.
    pub fn name(self) -> &'static str {
        match self {
            ChaseVariant::Oblivious => "oblivious",
            ChaseVariant::SemiOblivious => "semi-oblivious",
            ChaseVariant::Restricted => "restricted",
        }
    }

    /// Parses a long token, the only spelling files accept.
    pub fn from_name(s: &str) -> Option<ChaseVariant> {
        match s {
            "oblivious" => Some(ChaseVariant::Oblivious),
            "semi-oblivious" => Some(ChaseVariant::SemiOblivious),
            "restricted" => Some(ChaseVariant::Restricted),
            _ => None,
        }
    }

    /// Parses the command-line and wire spelling: a long token or one of
    /// the aliases `o`, `so` and `standard`.
    pub fn from_alias(s: &str) -> Option<ChaseVariant> {
        match s {
            "o" => Some(ChaseVariant::Oblivious),
            "so" => Some(ChaseVariant::SemiOblivious),
            "standard" => Some(ChaseVariant::Restricted),
            other => ChaseVariant::from_name(other),
        }
    }
}

impl std::fmt::Display for ChaseVariant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chasekit_core::{ConstId, Program, VarId};

    #[test]
    fn oblivious_keys_use_all_universals() {
        // r(X, Y) -> r(X, Z): frontier {X}, universals {X, Y}.
        let p = Program::parse("r(X, Y) -> r(X, Z).").unwrap();
        let rule = &p.rules()[0];
        let mut s = Substitution::new(rule.var_count());
        s.bind(VarId(0), Term::Const(ConstId(0)));
        s.bind(VarId(1), Term::Const(ConstId(1)));
        let o = ChaseVariant::Oblivious.trigger_key(rule, &s);
        let so = ChaseVariant::SemiOblivious.trigger_key(rule, &s);
        assert_eq!(o.len(), 2);
        assert_eq!(so.len(), 1);
        assert_eq!(so[0], Term::Const(ConstId(0)));
    }

    #[test]
    fn restricted_shares_semi_oblivious_identity() {
        let p = Program::parse("r(X, Y) -> r(Y, Z).").unwrap();
        let rule = &p.rules()[0];
        let mut s = Substitution::new(rule.var_count());
        s.bind(VarId(0), Term::Const(ConstId(0)));
        s.bind(VarId(1), Term::Const(ConstId(1)));
        assert_eq!(
            ChaseVariant::SemiOblivious.trigger_key(rule, &s),
            ChaseVariant::Restricted.trigger_key(rule, &s)
        );
        assert!(ChaseVariant::Restricted.checks_satisfaction());
        assert!(!ChaseVariant::Oblivious.checks_satisfaction());
    }

    #[test]
    fn display_names() {
        assert_eq!(ChaseVariant::Oblivious.to_string(), "oblivious");
        assert_eq!(ChaseVariant::SemiOblivious.to_string(), "semi-oblivious");
        assert_eq!(ChaseVariant::Restricted.to_string(), "restricted");
    }

    #[test]
    fn names_and_aliases_round_trip() {
        for v in [ChaseVariant::Oblivious, ChaseVariant::SemiOblivious, ChaseVariant::Restricted] {
            assert_eq!(ChaseVariant::from_name(v.name()), Some(v));
            assert_eq!(ChaseVariant::from_alias(v.name()), Some(v));
        }
        assert_eq!(ChaseVariant::from_alias("o"), Some(ChaseVariant::Oblivious));
        assert_eq!(ChaseVariant::from_alias("so"), Some(ChaseVariant::SemiOblivious));
        assert_eq!(ChaseVariant::from_alias("standard"), Some(ChaseVariant::Restricted));
        // Files accept only the long tokens.
        for alias in ["o", "so", "standard", "Oblivious", ""] {
            assert_eq!(ChaseVariant::from_name(alias), None, "{alias:?}");
        }
        assert_eq!(ChaseVariant::from_alias("semi"), None);
    }
}
