//! Human-readable rendering of atoms, rules, and instances.
//!
//! Terms only carry ids, so rendering needs the owning [`Vocabulary`] (for
//! predicate/constant names) and, for rule atoms, the owning [`Tgd`] (for
//! variable names). Nulls render as `_:n<k>`.

use std::fmt::Write as _;

use crate::atom::{Atom, AtomRef};
use crate::instance::Instance;
use crate::program::Program;
use crate::rule::Tgd;
use crate::term::Term;
use crate::vocab::Vocabulary;

/// Renders a term. `rule` supplies variable names when present; variables
/// without a rule context render as `?<id>`.
pub fn term_to_string(t: Term, vocab: &Vocabulary, rule: Option<&Tgd>) -> String {
    match t {
        Term::Const(c) => vocab.const_name(c).to_owned(),
        Term::Null(n) => format!("_:n{}", n.0),
        Term::Var(v) => match rule {
            Some(r) => r.vars()[v.index()].name.clone(),
            None => format!("?{}", v.0),
        },
    }
}

/// Renders an atom.
pub fn atom_to_string(a: &Atom, vocab: &Vocabulary, rule: Option<&Tgd>) -> String {
    atom_ref_to_string(a.as_ref(), vocab, rule)
}

/// Renders a borrowed atom view (what [`Instance::atom`] resolves to).
///
/// [`Instance::atom`]: crate::Instance::atom
pub fn atom_ref_to_string(a: AtomRef<'_>, vocab: &Vocabulary, rule: Option<&Tgd>) -> String {
    let mut s = String::new();
    s.push_str(vocab.pred_name(a.pred));
    if !a.args.is_empty() {
        s.push('(');
        for (i, &t) in a.args.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&term_to_string(t, vocab, rule));
        }
        s.push(')');
    }
    s
}

/// Renders a conjunction of atoms separated by `, `.
fn conj_to_string(atoms: &[Atom], vocab: &Vocabulary, rule: Option<&Tgd>) -> String {
    let mut s = String::new();
    for (i, a) in atoms.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        s.push_str(&atom_to_string(a, vocab, rule));
    }
    s
}

/// Renders a rule in the parser's input syntax: `body -> head.`
pub fn rule_to_string(rule: &Tgd, vocab: &Vocabulary) -> String {
    format!(
        "{} -> {}.",
        conj_to_string(rule.body(), vocab, Some(rule)),
        conj_to_string(rule.head(), vocab, Some(rule))
    )
}

/// Renders a whole program in the parser's input syntax (rules then facts).
pub fn program_to_string(program: &Program) -> String {
    let mut s = String::new();
    for rule in program.rules() {
        let _ = writeln!(s, "{}", rule_to_string(rule, &program.vocab));
    }
    for fact in program.facts() {
        let _ = writeln!(s, "{}.", atom_to_string(fact, &program.vocab, None));
    }
    s
}

/// Renders a string as a JSON string literal (quoted, with `"` `\` and
/// control characters escaped). Used by the engine's trace/metrics
/// exporters so event payloads built from vocabulary names stay valid
/// JSON whatever the input program called its predicates.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders an instance, one atom per line, in insertion order.
pub fn instance_to_string(instance: &Instance, vocab: &Vocabulary) -> String {
    let mut s = String::new();
    for (_, a) in instance.iter() {
        let _ = writeln!(s, "{}", atom_ref_to_string(a, vocab, None));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_round_trips_through_parser() {
        let src = "person(X) -> hasFather(X, Y), person(Y).";
        let p = Program::parse(src).unwrap();
        let rendered = rule_to_string(&p.rules()[0], &p.vocab);
        assert_eq!(rendered, src);
        // And the rendering parses back to an equivalent rule.
        let p2 = Program::parse(&rendered).unwrap();
        assert_eq!(rule_to_string(&p2.rules()[0], &p2.vocab), src);
    }

    #[test]
    fn zero_ary_atoms_render_bare() {
        let p = Program::parse("go -> done.").unwrap();
        assert_eq!(rule_to_string(&p.rules()[0], &p.vocab), "go -> done.");
    }

    #[test]
    fn constants_and_nulls_render() {
        let p = Program::parse("p(alice, bob).").unwrap();
        let fact = &p.facts()[0];
        assert_eq!(atom_to_string(fact, &p.vocab, None), "p(alice, bob)");
        let null_atom = Atom::new(fact.pred, vec![Term::Null(crate::ids::NullId(3)), fact.args[0]]);
        assert_eq!(atom_to_string(&null_atom, &p.vocab, None), "p(_:n3, alice)");
    }

    #[test]
    fn whole_program_round_trips() {
        let src = "p(X, Y) -> p(Y, Z).\np(a, b).\n";
        let p = Program::parse(src).unwrap();
        let rendered = program_to_string(&p);
        let p2 = Program::parse(&rendered).unwrap();
        assert_eq!(program_to_string(&p2), rendered);
    }

    #[test]
    fn json_string_escapes_specials() {
        assert_eq!(json_string("person"), "\"person\"");
        assert_eq!(json_string("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(json_string("line\nbreak"), "\"line\\nbreak\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn instance_rendering_lists_atoms() {
        let p = Program::parse("p(a, b). p(b, a).").unwrap();
        let inst = Instance::from_atoms(p.facts().iter().cloned());
        let s = instance_to_string(&inst, &p.vocab);
        assert_eq!(s, "p(a, b)\np(b, a)\n");
    }
}
