//! Seeded random rule-set generators, one per syntactic class.
//!
//! The termination theorems quantify over all rule sets of a class, so the
//! experiments sample the class under controllable dials. All generators
//! are deterministic in the seed (rand's `StdRng`), so every experiment in
//! EXPERIMENTS.md can be regenerated exactly.

use chasekit_core::{PredId, Program, RuleBuilder, Term};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Dials for random rule-set generation.
#[derive(Debug, Clone, Copy)]
pub struct RandomConfig {
    /// Number of predicates in the pool.
    pub predicates: usize,
    /// Maximum predicate arity (each predicate gets arity 1..=max).
    pub max_arity: usize,
    /// Number of rules to generate.
    pub rules: usize,
    /// Probability that a head position gets an existential variable
    /// (rather than a frontier variable).
    pub existential_prob: f64,
    /// Maximum number of head atoms per rule.
    pub max_head_atoms: usize,
    /// Linear generators: probability of repeating a body variable
    /// (non-simple rules). Guarded generator: extra body atoms beyond the
    /// guard.
    pub complexity: f64,
    /// Number of constants available to the linear-with-constants
    /// generator (0 for constant-free rules).
    pub constants: usize,
}

impl Default for RandomConfig {
    fn default() -> Self {
        RandomConfig {
            predicates: 4,
            max_arity: 3,
            rules: 4,
            existential_prob: 0.4,
            max_head_atoms: 2,
            complexity: 0.3,
            constants: 0,
        }
    }
}

/// Declares the predicate pool, returning ids (arities cycle 1..=max).
fn declare_pool(program: &mut Program, cfg: &RandomConfig) -> Vec<PredId> {
    (0..cfg.predicates)
        .map(|i| {
            let arity = 1 + (i % cfg.max_arity.max(1));
            program.vocab.declare_pred(&format!("p{i}"), arity).expect("fresh predicate")
        })
        .collect()
}

fn intern_constants(program: &mut Program, cfg: &RandomConfig) -> Vec<Term> {
    (0..cfg.constants).map(|i| Term::Const(program.vocab.intern_const(&format!("c{i}")))).collect()
}

/// Generates a random **simple linear**, constant-free rule set
/// (the population of experiment E1 / Theorem 1).
pub fn random_simple_linear(cfg: &RandomConfig, seed: u64) -> Program {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut program = Program::new();
    let pool = declare_pool(&mut program, cfg);

    for _ in 0..cfg.rules {
        let mut rb = RuleBuilder::new();
        let body_pred = pool[rng.gen_range(0..pool.len())];
        let body_arity = program.vocab.arity(body_pred);
        // Simple linear: pairwise distinct body variables.
        let body_vars: Vec<Term> = (0..body_arity).map(|i| rb.var(&format!("X{i}"))).collect();
        rb.body_atom(body_pred, body_vars.clone());

        let head_atoms = 1 + rng.gen_range(0..cfg.max_head_atoms);
        let mut existentials = 0usize;
        for _ in 0..head_atoms {
            let head_pred = pool[rng.gen_range(0..pool.len())];
            let head_arity = program.vocab.arity(head_pred);
            let args: Vec<Term> = (0..head_arity)
                .map(|_| {
                    if rng.gen_bool(cfg.existential_prob) {
                        existentials += 1;
                        rb.var(&format!("Z{existentials}"))
                    } else {
                        body_vars[rng.gen_range(0..body_vars.len())]
                    }
                })
                .collect();
            rb.head_atom(head_pred, args);
        }
        program
            .add_rule(rb.build().expect("generated rule is valid"))
            .expect("arities match by construction");
    }
    program
}

/// Generates a random **linear** rule set, optionally with repeated body
/// variables and constants (the population of experiment E2 / Theorem 2).
pub fn random_linear(cfg: &RandomConfig, seed: u64) -> Program {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut program = Program::new();
    let pool = declare_pool(&mut program, cfg);
    let consts = intern_constants(&mut program, cfg);

    for _ in 0..cfg.rules {
        let mut rb = RuleBuilder::new();
        let body_pred = pool[rng.gen_range(0..pool.len())];
        let body_arity = program.vocab.arity(body_pred);

        // Body: variables, with repetition/constants per `complexity`.
        let mut body_args: Vec<Term> = Vec::with_capacity(body_arity);
        let mut distinct = 0usize;
        for _ in 0..body_arity {
            let reuse = distinct > 0 && rng.gen_bool(cfg.complexity);
            let use_const = !consts.is_empty() && rng.gen_bool(cfg.complexity / 2.0);
            if use_const {
                body_args.push(consts[rng.gen_range(0..consts.len())]);
            } else if reuse {
                let pick = rng.gen_range(0..distinct);
                body_args.push(rb.var(&format!("X{pick}")));
            } else {
                body_args.push(rb.var(&format!("X{distinct}")));
                distinct += 1;
            }
        }
        if distinct == 0 {
            // Ensure at least one variable so the rule is interesting.
            body_args[0] = rb.var("X0");
            distinct = 1;
        }
        rb.body_atom(body_pred, body_args);
        let body_vars: Vec<Term> = (0..distinct).map(|i| rb.var(&format!("X{i}"))).collect();

        let head_atoms = 1 + rng.gen_range(0..cfg.max_head_atoms);
        let mut existentials = 0usize;
        for _ in 0..head_atoms {
            let head_pred = pool[rng.gen_range(0..pool.len())];
            let head_arity = program.vocab.arity(head_pred);
            let args: Vec<Term> = (0..head_arity)
                .map(|_| {
                    if !consts.is_empty() && rng.gen_bool(cfg.complexity / 3.0) {
                        consts[rng.gen_range(0..consts.len())]
                    } else if rng.gen_bool(cfg.existential_prob) {
                        existentials += 1;
                        rb.var(&format!("Z{existentials}"))
                    } else {
                        body_vars[rng.gen_range(0..body_vars.len())]
                    }
                })
                .collect();
            rb.head_atom(head_pred, args);
        }
        program
            .add_rule(rb.build().expect("generated rule is valid"))
            .expect("arities match by construction");
    }
    program
}

/// Generates a random **guarded** rule set (the population of experiment
/// E4 / Theorem 4): each rule has a guard atom containing all universal
/// variables plus side atoms over subsets of them.
pub fn random_guarded(cfg: &RandomConfig, seed: u64) -> Program {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut program = Program::new();
    let pool = declare_pool(&mut program, cfg);

    for _ in 0..cfg.rules {
        let mut rb = RuleBuilder::new();
        // Guard: the widest predicates make better guards.
        let guard_pred = pool[rng.gen_range(0..pool.len())];
        let guard_arity = program.vocab.arity(guard_pred);
        let mut guard_args = Vec::with_capacity(guard_arity);
        let mut distinct = 0usize;
        for _ in 0..guard_arity {
            if distinct > 0 && rng.gen_bool(cfg.complexity / 2.0) {
                let pick = rng.gen_range(0..distinct);
                guard_args.push(rb.var(&format!("X{pick}")));
            } else {
                guard_args.push(rb.var(&format!("X{distinct}")));
                distinct += 1;
            }
        }
        rb.body_atom(guard_pred, guard_args);
        let guard_vars: Vec<Term> = (0..distinct).map(|i| rb.var(&format!("X{i}"))).collect();

        // Side atoms over guard variables only (keeps the rule guarded).
        let side_atoms =
            (rng.gen_bool(cfg.complexity) as usize) + (rng.gen_bool(cfg.complexity / 2.0) as usize);
        for _ in 0..side_atoms {
            let side_pred = pool[rng.gen_range(0..pool.len())];
            let side_arity = program.vocab.arity(side_pred);
            let args: Vec<Term> =
                (0..side_arity).map(|_| guard_vars[rng.gen_range(0..guard_vars.len())]).collect();
            rb.body_atom(side_pred, args);
        }

        let head_atoms = 1 + rng.gen_range(0..cfg.max_head_atoms);
        let mut existentials = 0usize;
        for _ in 0..head_atoms {
            let head_pred = pool[rng.gen_range(0..pool.len())];
            let head_arity = program.vocab.arity(head_pred);
            let args: Vec<Term> = (0..head_arity)
                .map(|_| {
                    if rng.gen_bool(cfg.existential_prob) {
                        existentials += 1;
                        rb.var(&format!("Z{existentials}"))
                    } else {
                        guard_vars[rng.gen_range(0..guard_vars.len())]
                    }
                })
                .collect();
            rb.head_atom(head_pred, args);
        }
        program
            .add_rule(rb.build().expect("generated rule is valid"))
            .expect("arities match by construction");
    }
    program
}

/// Generates a random unrestricted rule set (bodies of 1–3 atoms with
/// freely shared variables). Used by the portfolio experiments.
pub fn random_general(cfg: &RandomConfig, seed: u64) -> Program {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut program = Program::new();
    let pool = declare_pool(&mut program, cfg);

    for _ in 0..cfg.rules {
        let mut rb = RuleBuilder::new();
        let body_atoms = 1 + rng.gen_range(0..3);
        let var_pool_size = 1 + rng.gen_range(0..4);
        let vars: Vec<Term> = (0..var_pool_size).map(|i| rb.var(&format!("X{i}"))).collect();
        let mut used = vec![false; var_pool_size];
        for _ in 0..body_atoms {
            let pred = pool[rng.gen_range(0..pool.len())];
            let arity = program.vocab.arity(pred);
            let args: Vec<Term> = (0..arity)
                .map(|_| {
                    let i = rng.gen_range(0..var_pool_size);
                    used[i] = true;
                    vars[i]
                })
                .collect();
            rb.body_atom(pred, args);
        }
        let used_vars: Vec<Term> =
            vars.iter().zip(&used).filter(|(_, &u)| u).map(|(&v, _)| v).collect();

        let head_atoms = 1 + rng.gen_range(0..cfg.max_head_atoms);
        let mut existentials = 0usize;
        for _ in 0..head_atoms {
            let head_pred = pool[rng.gen_range(0..pool.len())];
            let head_arity = program.vocab.arity(head_pred);
            let args: Vec<Term> = (0..head_arity)
                .map(|_| {
                    if rng.gen_bool(cfg.existential_prob) || used_vars.is_empty() {
                        existentials += 1;
                        rb.var(&format!("Z{existentials}"))
                    } else {
                        used_vars[rng.gen_range(0..used_vars.len())]
                    }
                })
                .collect();
            rb.head_atom(head_pred, args);
        }
        program
            .add_rule(rb.build().expect("generated rule is valid"))
            .expect("arities match by construction");
    }
    program
}

/// Samples one of the four class generators by seed (simple-linear,
/// linear-with-constants, guarded, general in rotation), for harnesses
/// that want a class-mixed random population alongside the structured
/// ontology families. Deterministic in `(cfg, seed)`.
pub fn random_mixed(cfg: &RandomConfig, seed: u64) -> Program {
    match seed % 4 {
        0 => random_simple_linear(cfg, seed),
        1 => {
            let cfg = RandomConfig { constants: cfg.constants.max(2), ..*cfg };
            random_linear(&cfg, seed)
        }
        2 => random_guarded(cfg, seed),
        _ => random_general(cfg, seed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chasekit_core::RuleClass;

    #[test]
    fn simple_linear_generator_stays_in_class() {
        for seed in 0..50 {
            let p = random_simple_linear(&RandomConfig::default(), seed);
            assert_eq!(p.class(), RuleClass::SimpleLinear, "seed {seed}");
            assert_eq!(p.rules().len(), 4);
        }
    }

    #[test]
    fn linear_generator_stays_in_class() {
        let cfg = RandomConfig { constants: 2, complexity: 0.5, ..Default::default() };
        for seed in 0..50 {
            let p = random_linear(&cfg, seed);
            assert!(
                matches!(p.class(), RuleClass::SimpleLinear | RuleClass::Linear),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn guarded_generator_stays_in_class() {
        for seed in 0..50 {
            let p = random_guarded(&RandomConfig::default(), seed);
            assert!(p.class() <= RuleClass::Guarded, "seed {seed}: {:?}", p.class());
        }
    }

    #[test]
    fn generation_is_deterministic_in_the_seed() {
        let cfg = RandomConfig::default();
        let a = random_linear(&cfg, 42);
        let b = random_linear(&cfg, 42);
        assert_eq!(
            chasekit_core::display::program_to_string(&a),
            chasekit_core::display::program_to_string(&b)
        );
        let c = random_linear(&cfg, 43);
        assert_ne!(
            chasekit_core::display::program_to_string(&a),
            chasekit_core::display::program_to_string(&c)
        );
    }

    #[test]
    fn populations_mix_terminating_and_diverging() {
        // The dials should produce a non-degenerate population: among 100
        // seeds, some weakly acyclic and some not.
        let cfg = RandomConfig::default();
        let mut wa = 0;
        for seed in 0..100 {
            let p = random_simple_linear(&cfg, seed);
            if chasekit_acyclicity::is_weakly_acyclic(&p) {
                wa += 1;
            }
        }
        assert!(wa > 5, "too few weakly acyclic sets: {wa}");
        assert!(wa < 95, "too few dangerous sets: {wa}");
    }

    #[test]
    fn general_generator_produces_valid_rules() {
        for seed in 0..50 {
            let p = random_general(&RandomConfig::default(), seed);
            assert_eq!(p.rules().len(), 4, "seed {seed}");
            for r in p.rules() {
                assert!(!r.body().is_empty());
                assert!(!r.head().is_empty());
            }
        }
    }
}
