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

/// Appends a term to `out`. `rule` supplies variable names when present;
/// variables without a rule context render as `?<id>`.
pub fn write_term(out: &mut String, t: Term, vocab: &Vocabulary, rule: Option<&Tgd>) {
    match t {
        Term::Const(c) => out.push_str(vocab.const_name(c)),
        Term::Null(n) => {
            out.push_str("_:n");
            push_decimal(out, n.0);
        }
        Term::Var(v) => match rule {
            Some(r) => out.push_str(&r.vars()[v.index()].name),
            None => {
                let _ = write!(out, "?{}", v.0);
            }
        },
    }
}

/// Appends `n` in decimal, without going through the formatting machinery
/// (instances are mostly nulls, so this is the renderer's hot path).
fn push_decimal(out: &mut String, mut n: u32) {
    let mut digits = [0u8; 10];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[start..]).expect("ASCII digits"));
}

/// Appends an atom to `out`: the one renderer every atom-printing path
/// shares.
pub fn write_atom(out: &mut String, a: AtomRef<'_>, vocab: &Vocabulary, rule: Option<&Tgd>) {
    out.push_str(vocab.pred_name(a.pred));
    if !a.args.is_empty() {
        out.push('(');
        for (i, &t) in a.args.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            write_term(out, t, vocab, rule);
        }
        out.push(')');
    }
}

/// Renders a term. `rule` supplies variable names when present; variables
/// without a rule context render as `?<id>`.
pub fn term_to_string(t: Term, vocab: &Vocabulary, rule: Option<&Tgd>) -> String {
    let mut s = String::new();
    write_term(&mut s, t, vocab, rule);
    s
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
    write_atom(&mut s, a, vocab, rule);
    s
}

/// Renders a conjunction of atoms separated by `, `.
fn conj_to_string(atoms: &[Atom], vocab: &Vocabulary, rule: Option<&Tgd>) -> String {
    let mut s = String::new();
    for (i, a) in atoms.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        write_atom(&mut s, a.as_ref(), vocab, rule);
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

/// Renders an instance, one atom per line, in insertion order, into one
/// buffer sized up front for a few terms per atom.
pub fn instance_to_string(instance: &Instance, vocab: &Vocabulary) -> String {
    let mut s = String::with_capacity(instance.len() * 32);
    for (_, a) in instance.iter() {
        write_atom(&mut s, a, vocab, None);
        s.push('\n');
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
    fn decimals_render_like_display() {
        for n in [0, 7, 10, 99, 100, 4_294_967_295] {
            let mut s = String::new();
            push_decimal(&mut s, n);
            assert_eq!(s, n.to_string());
        }
    }

    #[test]
    fn json_string_escapes_specials() {
        assert_eq!(json_string("person"), "\"person\"");
        assert_eq!(json_string("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(json_string("line\nbreak"), "\"line\\nbreak\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn instance_rendering_equals_the_atom_lines() {
        let p = Program::parse("p(X, Y) -> q(Y, Z). go -> done. p(a, b). go.").unwrap();
        let mut inst = Instance::from_atoms(p.facts().iter().cloned());
        let (pred, b) = (p.rules()[0].head()[0].pred, p.facts()[0].args[1]);
        let null = Term::Null(inst.fresh_null());
        inst.insert(Atom::new(pred, vec![b, null]));
        inst.insert(Atom::new(pred, vec![null, Term::Null(crate::ids::NullId(12))]));
        inst.insert(Atom::new(p.rules()[1].head()[0].pred, vec![]));
        let lines: String =
            inst.iter().map(|(_, a)| atom_ref_to_string(a, &p.vocab, None) + "\n").collect();
        let rendered = instance_to_string(&inst, &p.vocab);
        assert_eq!(rendered, lines);
        assert_eq!(rendered, "p(a, b)\ngo\nq(b, _:n0)\nq(_:n0, _:n12)\ndone\n");
    }

    #[test]
    fn instance_rendering_lists_atoms() {
        let p = Program::parse("p(a, b). p(b, a).").unwrap();
        let inst = Instance::from_atoms(p.facts().iter().cloned());
        let s = instance_to_string(&inst, &p.vocab);
        assert_eq!(s, "p(a, b)\np(b, a)\n");
    }
}
