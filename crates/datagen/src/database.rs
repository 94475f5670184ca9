//! Random database (instance) generators for chase-engine workloads.

use chasekit_core::{Atom, Instance, Program, Term};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Dials for random database generation.
#[derive(Debug, Clone, Copy)]
pub struct DbConfig {
    /// Number of facts.
    pub facts: usize,
    /// Size of the constant pool.
    pub constants: usize,
}

impl Default for DbConfig {
    fn default() -> Self {
        DbConfig { facts: 20, constants: 8 }
    }
}

/// Generates a random database over the program's rule predicates,
/// interning the pool constants into the program's vocabulary.
pub fn random_database(program: &mut Program, cfg: &DbConfig, seed: u64) -> Instance {
    let mut rng = StdRng::seed_from_u64(seed);
    let consts: Vec<Term> = (0..cfg.constants)
        .map(|i| Term::Const(program.vocab.intern_const(&format!("d{i}"))))
        .collect();
    let preds = program.rule_predicates();
    let mut instance = Instance::new();
    if preds.is_empty() || consts.is_empty() {
        return instance;
    }
    for _ in 0..cfg.facts {
        let pred = preds[rng.gen_range(0..preds.len())];
        let arity = program.vocab.arity(pred);
        let args: Vec<Term> = (0..arity).map(|_| consts[rng.gen_range(0..consts.len())]).collect();
        instance.insert(Atom::new(pred, args));
    }
    instance
}

/// Generates a path database `e(d0, d1), e(d1, d2), ...` over a binary
/// predicate — the canonical restricted-chase divergence probe.
pub fn path_database(program: &mut Program, pred_name: &str, len: usize) -> Option<Instance> {
    let pred = program.vocab.pred(pred_name)?;
    if program.vocab.arity(pred) != 2 {
        return None;
    }
    let mut instance = Instance::new();
    for i in 0..len {
        let a = Term::Const(program.vocab.intern_const(&format!("d{i}")));
        let b = Term::Const(program.vocab.intern_const(&format!("d{}", i + 1)));
        instance.insert(Atom::new(pred, vec![a, b]));
    }
    Some(instance)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_database_respects_size_and_arity() {
        let mut p = Program::parse("e(X, Y) -> t(X, Y).").unwrap();
        let db = random_database(&mut p, &DbConfig { facts: 50, constants: 4 }, 7);
        // Duplicates collapse, so <= 50.
        assert!(db.len() <= 50 && db.len() > 10);
        for (_, atom) in db.iter() {
            assert_eq!(atom.arity(), p.vocab.arity(atom.pred));
            assert!(atom.is_ground());
        }
    }

    #[test]
    fn random_database_is_seed_deterministic() {
        let mut p1 = Program::parse("e(X, Y) -> t(X, Y).").unwrap();
        let mut p2 = Program::parse("e(X, Y) -> t(X, Y).").unwrap();
        let a = random_database(&mut p1, &DbConfig::default(), 99);
        let b = random_database(&mut p2, &DbConfig::default(), 99);
        assert_eq!(a.len(), b.len());
        for (_, atom) in a.iter() {
            assert!(b.id_of_parts(atom.pred, atom.args).is_some());
        }
    }

    #[test]
    fn path_database_builds_a_path() {
        let mut p = Program::parse("e(X, Y) -> e(Y, Z).").unwrap();
        let db = path_database(&mut p, "e", 5).unwrap();
        assert_eq!(db.len(), 5);
        assert!(path_database(&mut p, "missing", 3).is_none());
    }
}
